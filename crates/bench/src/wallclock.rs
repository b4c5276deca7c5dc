//! The wall-clock performance baseline: how fast is the simulator
//! *itself*?
//!
//! Every other harness in this crate measures **virtual** time — what the
//! simulated cloud experiences. This one measures **host** time: events
//! per second through the DES kernel, wall-clock per experiment, and
//! seeds per second through the chaos sweep, serial and fanned out across
//! cores with [`ParallelSweep`]. The numbers land in
//! `BENCH_baseline.json` so the repo carries a perf trajectory and future
//! PRs can be gated against regressions (the SeBS lesson: a benchmark
//! suite without reproducible throughput baselines is a demo, not a
//! measurement).
//!
//! Run it with `make bench` (or
//! `cargo bench -p faasim-bench --bench wallclock`).

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use faasim::blob::{BlobProfile, BlobStore};
use faasim::experiments::{
    agents_cmp, bandwidth, cold_starts, data_shipping, election, prediction, table1, training,
};
use faasim::net::{Fabric, Host, NetProfile, NicConfig};
use faasim::payload::Payload;
use faasim::pricing::{Ledger, PriceBook};
use faasim::query::{Aggregate, QueryProfile, QueryService, QuerySpec};
use faasim::simcore::{gbps, mbps, FairShareLink, Recorder, Sim, SimDuration};
use faasim_chaos::{sweep, CrdtSync, ParallelSweep};
use faasim_trace::{replay, ReplayConfig};

use crate::BENCH_SEED;

/// One kernel microbenchmark: wall-clock plus the kernel's own event
/// counter, giving events/sec.
#[derive(Clone, Debug)]
pub struct KernelBench {
    /// Benchmark name, `kernel/<what>`.
    pub name: String,
    /// Host seconds elapsed.
    pub wall_secs: f64,
    /// Events the kernel processed (task polls + timer firings).
    pub events: u64,
    /// Rendered engine [`SimProfile`](faasim::simcore::SimProfile) for
    /// benches that surface one (the replay kernels) — deterministic, so
    /// it doubles as a cross-round identity check.
    pub profile: Option<String>,
}

impl KernelBench {
    /// Events per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Wall-clock for one experiment at `quick()` params.
#[derive(Clone, Debug)]
pub struct ExperimentBench {
    /// Experiment name as used in EXPERIMENTS.md.
    pub name: String,
    /// Host seconds elapsed.
    pub wall_secs: f64,
}

/// Serial-vs-parallel sweep throughput.
#[derive(Clone, Debug)]
pub struct SweepBench {
    /// Seeds swept (each runs twice — the replay check).
    pub seeds: usize,
    /// Cores the host reports (recorded alongside `workers` so a
    /// baseline taken on a different machine is interpretable).
    pub cores: usize,
    /// Worker threads the parallel arm used (defaults to `cores` via
    /// [`ParallelSweep::auto`]).
    pub workers: usize,
    /// Host seconds, serial arm.
    pub serial_secs: f64,
    /// Host seconds, parallel arm.
    pub parallel_secs: f64,
}

impl SweepBench {
    /// Serial seeds per host second.
    pub fn serial_seeds_per_sec(&self) -> f64 {
        self.seeds as f64 / self.serial_secs.max(1e-9)
    }

    /// Parallel seeds per host second.
    pub fn parallel_seeds_per_sec(&self) -> f64 {
        self.seeds as f64 / self.parallel_secs.max(1e-9)
    }

    /// Wall-clock speedup of the parallel arm over the serial arm.
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-9)
    }
}

/// Everything `make bench` measures.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Cores the host reports.
    pub cores: usize,
    /// DES-kernel microbenchmarks.
    pub kernel: Vec<KernelBench>,
    /// Per-experiment wall-clock at `quick()` params.
    pub experiments: Vec<ExperimentBench>,
    /// Chaos-sweep throughput, serial vs parallel.
    pub sweep: SweepBench,
}

fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Kernel and experiment timings are best-of-N **suite rounds**: on a
/// shared host, single-shot wall-clock is right-skewed by interference
/// (another tenant's burst can double a 20 ms measurement), and the
/// minimum of a few runs is the classic antidote — it estimates the
/// undisturbed cost, which is what the regression gate wants to track.
/// The rounds loop over the whole suite rather than re-running each
/// bench back-to-back, so the N samples of any one bench are separated
/// by seconds: a load burst that swallows one round rarely survives
/// into the next.
const BENCH_RUNS: usize = 3;

fn kernel_bench(name: &str, f: impl FnOnce() -> u64) -> KernelBench {
    let (wall_secs, events) = time(f);
    KernelBench {
        name: name.to_owned(),
        wall_secs,
        events,
        profile: None,
    }
}

/// Like [`kernel_bench`] for kernels that also report an engine
/// [`SimProfile`](faasim::simcore::SimProfile) line.
fn kernel_bench_profiled(name: &str, f: impl FnOnce() -> (u64, String)) -> KernelBench {
    let (wall_secs, (events, profile)) = time(f);
    KernelBench {
        name: name.to_owned(),
        wall_secs,
        events,
        profile: Some(profile),
    }
}

/// Fold one suite round into the best-of-rounds accumulator: keep the
/// fastest wall-clock per entry (event counts are deterministic and
/// must agree across rounds).
fn merge_min_wall(acc: &mut Vec<KernelBench>, round: Vec<KernelBench>) {
    if acc.is_empty() {
        *acc = round;
        return;
    }
    for (best, sample) in acc.iter_mut().zip(round) {
        assert_eq!(best.name, sample.name, "bench rounds must line up");
        assert_eq!(best.events, sample.events, "{}: nondeterministic events", best.name);
        assert_eq!(
            best.profile, sample.profile,
            "{}: nondeterministic engine profile",
            best.name
        );
        best.wall_secs = best.wall_secs.min(sample.wall_secs);
    }
}

/// One round of the DES-kernel microbenchmarks: each returns the
/// kernel's event count so the score is events/sec, not iterations/sec.
/// [`run_baseline`] runs `BENCH_RUNS` rounds and keeps the fastest
/// wall-clock per bench.
pub fn run_kernel_benches() -> Vec<KernelBench> {
    let mut out = base_kernel_benches();
    out.extend(query_scan_kernel_benches(
        10 * 1024 * 1024,   // 10 inline objects of ~10 MB -> a ~100 MB corpus
        10,
        1024 * 1024 * 1024, // 30 synthetic objects of 1 GB -> the 30 GB paper scale
        30,
    ));
    out.push(gateway_admission_bench());
    out.push(trace_replay_bench(false));
    out.push(trace_replay_bench(true));
    out.push(trace_replay_1m_bench());
    out
}

/// The gateway admission hot path in isolation: one million `try_admit`
/// decisions spread over a thousand tenants, with virtual time advanced
/// between batches so the lazy token-bucket refill, the watermark check,
/// and the breaker gate all stay on the measured path. `events` is the
/// decision count; the conservation identity is asserted at the end.
fn gateway_admission_bench() -> KernelBench {
    use faasim_gateway::{Gateway, GatewayConfig, TenantConfig};

    const TENANTS: u64 = 1_000;
    const DECISIONS: u64 = 1_000_000;
    let cloud = faasim::Cloud::new(faasim::CloudProfile::aws_2018().exact(), BENCH_SEED);
    let gw = Gateway::new(
        &cloud.sim,
        &cloud.faas,
        cloud.ledger.clone(),
        cloud.recorder.clone(),
        &cloud.prices,
        GatewayConfig::new(
            (0..TENANTS)
                .map(|t| TenantConfig {
                    rate: 50.0,
                    burst: 100.0,
                    max_concurrent: 64,
                    priority: (t % 4) as u8,
                })
                .collect(),
        ),
    );
    let sim = cloud.sim.clone();
    kernel_bench("gateway/admission_1m_decisions", move || {
        for batch in 0..(DECISIONS / TENANTS) {
            for t in 0..TENANTS {
                if let Ok(admission) = gw.try_admit(t as u32) {
                    admission.complete(true);
                }
            }
            // Advance virtual time so buckets refill mid-benchmark and
            // the admitted/shed mix keeps flipping: 8 decisions per
            // tenant cost 8 tokens but 40 ms only refills 2, so buckets
            // drain from their initial burst into a steady shed regime.
            if batch % 8 == 7 {
                sim.run_until(sim.now() + SimDuration::from_millis(40));
            }
        }
        let stats = gw.stats();
        assert_eq!(stats.totals.offered, DECISIONS);
        assert!(
            stats.totals.conserved(),
            "admission accounting broken: {:?}",
            stats.totals
        );
        assert!(stats.totals.admitted > 0 && stats.totals.shed() > 0);
        DECISIONS
    })
}

/// The 100k-invocation replay kernel config (shared with `make
/// profile`): 256 apps at 500 req/s for four minutes, with or without
/// the gateway tier.
pub fn replay_100k_config(gateway: bool) -> ReplayConfig {
    let mut cfg = ReplayConfig::small();
    cfg.trace.apps = 256;
    cfg.trace.total_rate = 500.0;
    cfg.trace.duration = SimDuration::from_mins(4);
    cfg.trace.max_events = 100_000;
    if !gateway {
        cfg.gateway = None;
    }
    cfg
}

/// The million-invocation replay kernel config (shared with `make
/// profile`): the full paper-scale trace — 3000 apps, 12k functions, 32
/// tenants, gateway tier on — capped at one million arrivals.
pub fn replay_1m_config() -> ReplayConfig {
    let mut cfg = ReplayConfig::paper_scale();
    cfg.trace.max_events = 1_000_000;
    cfg
}

/// Assert what a calm (fault-free) replay must satisfy: through the
/// gateway every failure is an admission shed and admissions conserve;
/// without it nothing may fail at all. Shared by the replay kernels and
/// `make profile`.
pub fn assert_calm_replay(out: &faasim_trace::ReplayOutcome, gateway: bool) {
    if gateway {
        // These traces deliberately saturate the in-flight cap, so the
        // shedder fires: every failure must be a gateway shed (never an
        // execution error) and admissions must conserve.
        assert_eq!(
            out.report.failed, out.report.gw_shed_requests,
            "calm replay may only fail by shedding"
        );
        assert!(out.report.gw_offered >= out.report.invocations);
        assert_eq!(
            out.report.gw_offered,
            out.report.gw_admitted
                + out.report.gw_rate_shed
                + out.report.gw_load_shed
                + out.report.gw_breaker_rejected,
        );
    } else {
        assert_eq!(out.report.failed, 0, "calm replay must not fail");
    }
}

/// A 100k-invocation trace replay end to end: generator, platform,
/// retrying invoker, reaper, sketch, and report — optionally through the
/// multi-tenant gateway tier, so the pair prices the front door's
/// per-request overhead at scale. `events` is the invocation count —
/// deterministic across rounds, so the gate scores replayed invocations
/// per host second.
fn trace_replay_bench(gateway: bool) -> KernelBench {
    let cfg = replay_100k_config(gateway);
    let name = if gateway {
        "trace/replay_100k_invocations_gateway"
    } else {
        "trace/replay_100k_invocations"
    };
    kernel_bench_profiled(name, || {
        let out = replay(&cfg, BENCH_SEED, &|_| {});
        assert_calm_replay(&out, gateway);
        (out.report.invocations, out.report.engine.to_string())
    })
}

/// The acceptance-scale replay kernel: one million invocations of the
/// paper-scale trace through the gateway tier, end to end. This is the
/// scale every future policy shoot-out wants to sweep at, so its
/// events/sec is the headline number the baseline carries.
fn trace_replay_1m_bench() -> KernelBench {
    let cfg = replay_1m_config();
    kernel_bench_profiled("trace/replay_1m_invocations", || {
        let out = replay(&cfg, BENCH_SEED, &|_| {});
        assert_calm_replay(&out, true);
        assert!(
            out.report.invocations >= 1_000_000,
            "paper-scale trace must reach the million-arrival cap, got {}",
            out.report.invocations
        );
        (out.report.invocations, out.report.engine.to_string())
    })
}

fn base_kernel_benches() -> Vec<KernelBench> {
    vec![
        kernel_bench("kernel/sequential_sleeps_100k", || {
            let sim = Sim::new(BENCH_SEED);
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..100_000 {
                    s.sleep(SimDuration::from_micros(1)).await;
                }
            });
            sim.stats().events_processed
        }),
        kernel_bench("kernel/concurrent_tasks_10k", || {
            let sim = Sim::new(BENCH_SEED);
            for i in 0..10_000u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    for _ in 0..10 {
                        s.sleep(SimDuration::from_nanos(1 + i % 977)).await;
                    }
                });
            }
            sim.run();
            sim.stats().events_processed
        }),
        kernel_bench("kernel/timer_cancel_churn_50k", || {
            // Timeouts that never fire: every sleep is registered and
            // then canceled — the slab-recycling hot path.
            let sim = Sim::new(BENCH_SEED);
            let s = sim.clone();
            sim.block_on(async move {
                for _ in 0..50_000 {
                    s.timeout(SimDuration::from_secs(3600), s.sleep(SimDuration::from_nanos(10)))
                        .await;
                }
            });
            sim.stats().events_processed
        }),
        kernel_bench("kernel/link_fanin_5k_flows", || {
            // The data-shipping hot path: thousands of staggered flows
            // fanning into one shared link, so every join/leave reshapes
            // the fair share and churns the flow slab.
            let sim = Sim::new(BENCH_SEED);
            let link = FairShareLink::new(&sim, mbps(1000.0));
            for i in 0..5_000u64 {
                let l = link.clone();
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(i * 13)).await;
                    let cap = if i % 4 == 0 { Some(mbps(10.0)) } else { None };
                    l.transfer(250_000, cap).await;
                });
            }
            sim.run();
            sim.stats().events_processed
        }),
        kernel_bench("kernel/link_fanin_100k_flows", || {
            link_fanin_at_scale(100_000)
        }),
        kernel_bench("kernel/link_fanin_1m_flows", || {
            link_fanin_at_scale(1_000_000)
        }),
    ]
}

/// The virtual-time fair-queueing stress: `n` staggered flows pile onto
/// one 10 Gbps link until every one of them is concurrently in flight,
/// then drain. Transfers are sized so the last joiner arrives long
/// before the first completion — peak concurrency equals `n` — and one
/// flow in sixteen is rate-capped so the class buckets and the
/// water-level crossings stay on the measured path. Returns the event
/// count; the score is events/sec at the target scale the ROADMAP set
/// (100k–1M concurrent flows).
fn link_fanin_at_scale(n: u64) -> u64 {
    let sim = Sim::new(BENCH_SEED);
    let link = FairShareLink::new(&sim, gbps(10.0));
    let done = Rc::new(std::cell::Cell::new(0u64));
    for i in 0..n {
        let l = link.clone();
        let s = sim.clone();
        let d = done.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_nanos(i * 500)).await;
            let cap = if i % 16 == 0 { Some(mbps(1.0)) } else { None };
            l.transfer(1_000_000, cap).await;
            d.set(d.get() + 1);
        });
    }
    sim.run();
    assert_eq!(done.get(), n, "all flows must drain");
    assert_eq!(link.active_flows(), 0);
    sim.stats().events_processed
}

/// A minimal blob + query world for the scan benches. Exact profiles so
/// the simulated timeline is deterministic and the wall-clock measures
/// the scan pipeline, not RNG noise.
fn query_scan_world() -> (Sim, BlobStore, QueryService, Host) {
    let sim = Sim::new(BENCH_SEED);
    let recorder = Recorder::new();
    let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
    let prices = Rc::new(PriceBook::aws_2018());
    let ledger = Ledger::new();
    let blob = BlobStore::new(
        &sim,
        BlobProfile::aws_2018().exact(),
        prices.clone(),
        ledger.clone(),
        recorder.clone(),
    );
    blob.create_bucket("logs");
    let query = QueryService::new(
        &sim,
        &fabric,
        &blob,
        QueryProfile::aws_2018().exact(),
        prices,
        ledger,
        recorder,
    );
    let client = fabric.add_host(1, NicConfig::simple(gbps(1.0)));
    (sim, blob, query, client)
}

/// ~`bytes` of varied access-log lines (whole lines only, so the object
/// may run a few bytes over).
fn inline_log_object(bytes: usize, salt: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes + 64);
    let mut i = salt;
    while out.len() < bytes {
        let line = format!("GET /p/{} {} {}\n", i % 997, 200 + (i % 4) * 101, i % 31);
        out.extend_from_slice(line.as_bytes());
        i += 1;
    }
    out
}

/// Host-side replica of the pre-streaming scan: materialize every
/// object, then one eager pass that builds the full distinct-line
/// `BTreeMap<String, u64>` — a `String` allocation per line visit —
/// exactly like the old `Accumulator` did regardless of the aggregate.
/// Returns the line count so its `events` are comparable 1:1 with the
/// streaming bench.
fn eager_reference_scan(objects: &[Vec<u8>]) -> u64 {
    let mut lines: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for obj in objects {
        for line in obj.split(|&b| b == b'\n') {
            let line = match line.last() {
                Some(b'\r') => &line[..line.len() - 1],
                _ => line,
            };
            if line.is_empty() {
                continue;
            }
            *lines
                .entry(String::from_utf8_lossy(line).into_owned())
                .or_default() += 1;
        }
    }
    lines.values().sum()
}

/// The query-scan benches. `events` is the number of log lines the
/// query counted, so `events/sec` is a line-scan rate and the
/// streaming-vs-eager pair compares directly (same corpus, same count):
///
/// - `query_scan_inline_100mb`: the streaming pipeline over real inline
///   bytes — ranged reads, chunked folds, zero-allocation `CountAll`;
/// - `query_scan_inline_100mb_eager`: the pre-streaming reference scan
///   over the identical corpus (fetch-all + distinct-line histogram);
/// - `query_scan_synthetic_30gb`: the paper-scale corpus as symbolic
///   `Synthetic` payloads — the scan folds per-pattern results scaled by
///   the repeat count, so 30 GB is queried without materializing it.
fn query_scan_kernel_benches(
    inline_object_bytes: usize,
    inline_objects: usize,
    synth_object_bytes: u64,
    synth_objects: usize,
) -> Vec<KernelBench> {
    // The corpus is shared by both inline arms and built outside the
    // timed sections.
    let corpus: Vec<Vec<u8>> = (0..inline_objects)
        .map(|i| inline_log_object(inline_object_bytes, i as u64 * 1_000_003))
        .collect();

    let (sim, blob, query, client) = query_scan_world();
    for (i, obj) in corpus.iter().enumerate() {
        let blob = blob.clone();
        let client = client.clone();
        let body = Bytes::from(obj.clone());
        let key = format!("obj-{i:03}");
        sim.block_on(async move {
            blob.put(&client, "logs", &key, body).await.expect("put");
        });
    }
    let streaming = kernel_bench("kernel/query_scan_inline_100mb", || {
        let q = query.clone();
        let c = client.clone();
        let out = sim
            .block_on(async move {
                q.run(&c, QuerySpec::new("logs", "obj-", Aggregate::CountAll))
                    .await
            })
            .expect("query");
        out.rows[0].1 as u64
    });

    let eager = kernel_bench("kernel/query_scan_inline_100mb_eager", || {
        eager_reference_scan(&corpus)
    });
    assert_eq!(
        streaming.events, eager.events,
        "streaming and eager scans must count the same lines"
    );

    let (sim, blob, query, client) = query_scan_world();
    let line = "GET /assets/app.js 200\n";
    let reps = synth_object_bytes / line.len() as u64;
    for i in 0..synth_objects {
        let blob = blob.clone();
        let client = client.clone();
        let body = Payload::synthetic(line, reps);
        let key = format!("part-{i:04}");
        sim.block_on(async move {
            blob.put(&client, "logs", &key, body).await.expect("put");
        });
    }
    let synthetic = kernel_bench("kernel/query_scan_synthetic_30gb", || {
        let q = query.clone();
        let c = client.clone();
        let out = sim
            .block_on(async move {
                q.run(&c, QuerySpec::new("logs", "part-", Aggregate::CountAll))
                    .await
            })
            .expect("query");
        out.rows[0].1 as u64
    });

    vec![streaming, eager, synthetic]
}

/// One round of wall-clocking each experiment at `quick()` params;
/// [`run_baseline`] keeps the best of `BENCH_RUNS` rounds.
pub fn run_experiment_benches() -> Vec<ExperimentBench> {
    fn one(name: &str, f: impl FnOnce()) -> ExperimentBench {
        let (wall_secs, ()) = time(f);
        ExperimentBench {
            name: name.to_owned(),
            wall_secs,
        }
    }
    vec![
        one("table1", || {
            std::hint::black_box(table1::run(&table1::Table1Params::quick(), BENCH_SEED));
        }),
        one("cold_starts", || {
            std::hint::black_box(cold_starts::run(
                &cold_starts::ColdStartParams::quick(),
                BENCH_SEED,
            ));
        }),
        one("bandwidth", || {
            std::hint::black_box(bandwidth::run(
                &bandwidth::BandwidthParams::quick(),
                BENCH_SEED,
            ));
        }),
        one("data_shipping", || {
            std::hint::black_box(data_shipping::run(
                &data_shipping::DataShippingParams::quick(),
                BENCH_SEED,
            ));
        }),
        // The default sweep ends at the 30 GB paper-scale point where the
        // 15-minute guillotine forces execution chaining. Symbolic
        // payloads are what make this affordable: the acceptance bar is
        // < 0.8 s wall for the whole five-point sweep.
        one("data_shipping_paper_scale", || {
            std::hint::black_box(data_shipping::run(
                &data_shipping::DataShippingParams::default(),
                BENCH_SEED,
            ));
        }),
        one("training", || {
            std::hint::black_box(training::run(&training::TrainingParams::quick(), BENCH_SEED));
        }),
        one("prediction", || {
            std::hint::black_box(prediction::run(
                &prediction::PredictionParams::quick(),
                BENCH_SEED,
            ));
        }),
        one("election", || {
            std::hint::black_box(election::run(&election::ElectionParams::quick(), BENCH_SEED));
        }),
        one("agents_cmp", || {
            std::hint::black_box(agents_cmp::run(
                &agents_cmp::AgentsCmpParams::quick(),
                BENCH_SEED,
            ));
        }),
    ]
}

/// Sweep `seeds` seeds of the chaotic CRDT-sync scenario serially and
/// through [`ParallelSweep`], asserting the reports are byte-identical
/// before reporting throughput.
pub fn run_sweep_bench(seeds: usize) -> SweepBench {
    let scenario = CrdtSync::chaotic();
    let seed_list: Vec<u64> = (1..=seeds as u64).collect();
    let mut serial_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let pool = ParallelSweep::auto();
    // Best-of-BENCH_RUNS on each arm, like the kernel benches — the
    // replay-identity assertion runs every round.
    for _ in 0..BENCH_RUNS {
        let (serial, serial_report) = time(|| sweep(&scenario, &seed_list));
        let (parallel, parallel_report) = time(|| pool.sweep(&scenario, &seed_list));
        assert_eq!(
            serial_report, parallel_report,
            "parallel sweep must be byte-identical to serial"
        );
        serial_secs = serial_secs.min(serial);
        parallel_secs = parallel_secs.min(parallel);
    }
    SweepBench {
        seeds,
        cores: ParallelSweep::available_cores(),
        workers: pool.workers(),
        serial_secs,
        parallel_secs,
    }
}

/// Run the full baseline: kernel, experiments, and a `seeds`-seed sweep.
/// Kernel and experiment suites run `BENCH_RUNS` interleaved rounds,
/// keeping each entry's fastest wall-clock.
pub fn run_baseline(seeds: usize) -> Baseline {
    let mut kernel = Vec::new();
    let mut experiments: Vec<ExperimentBench> = Vec::new();
    for _ in 0..BENCH_RUNS {
        merge_min_wall(&mut kernel, run_kernel_benches());
        let round = run_experiment_benches();
        if experiments.is_empty() {
            experiments = round;
        } else {
            for (best, sample) in experiments.iter_mut().zip(round) {
                assert_eq!(best.name, sample.name, "experiment rounds must line up");
                best.wall_secs = best.wall_secs.min(sample.wall_secs);
            }
        }
    }
    Baseline {
        cores: ParallelSweep::available_cores(),
        kernel,
        experiments,
        sweep: run_sweep_bench(seeds),
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

impl Baseline {
    /// Serialize to the `BENCH_baseline.json` schema (no external JSON
    /// dependency — the build is offline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"faasim-bench/wallclock/1\",\n");
        writeln!(out, "  \"cores\": {},", self.cores).unwrap();
        out.push_str("  \"kernel\": [\n");
        for (i, k) in self.kernel.iter().enumerate() {
            let comma = if i + 1 < self.kernel.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"wall_secs\": {}, \"events\": {}, \"events_per_sec\": {}}}{comma}",
                k.name,
                json_f64(k.wall_secs),
                k.events,
                json_f64(k.events_per_sec()),
            )
            .unwrap();
        }
        out.push_str("  ],\n");
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let comma = if i + 1 < self.experiments.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"wall_secs\": {}}}{comma}",
                e.name,
                json_f64(e.wall_secs),
            )
            .unwrap();
        }
        out.push_str("  ],\n");
        let s = &self.sweep;
        out.push_str("  \"sweep\": {\n");
        writeln!(out, "    \"scenario\": \"crdt-sync/chaotic\",").unwrap();
        writeln!(out, "    \"seeds\": {},", s.seeds).unwrap();
        writeln!(out, "    \"cores\": {},", s.cores).unwrap();
        writeln!(out, "    \"workers\": {},", s.workers).unwrap();
        writeln!(out, "    \"serial_secs\": {},", json_f64(s.serial_secs)).unwrap();
        writeln!(out, "    \"parallel_secs\": {},", json_f64(s.parallel_secs)).unwrap();
        writeln!(
            out,
            "    \"serial_seeds_per_sec\": {},",
            json_f64(s.serial_seeds_per_sec())
        )
        .unwrap();
        writeln!(
            out,
            "    \"parallel_seeds_per_sec\": {},",
            json_f64(s.parallel_seeds_per_sec())
        )
        .unwrap();
        writeln!(out, "    \"speedup\": {}", json_f64(s.speedup())).unwrap();
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Human-readable table, printed by the bench target.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "wall-clock baseline ({} core(s))", self.cores).unwrap();
        writeln!(out).unwrap();
        writeln!(
            out,
            "{:<34} {:>10} {:>12} {:>14}",
            "kernel bench", "wall (s)", "events", "events/sec"
        )
        .unwrap();
        for k in &self.kernel {
            writeln!(
                out,
                "{:<34} {:>10.3} {:>12} {:>14.0}",
                k.name,
                k.wall_secs,
                k.events,
                k.events_per_sec()
            )
            .unwrap();
            if let Some(profile) = &k.profile {
                writeln!(out, "    engine: {profile}").unwrap();
            }
        }
        writeln!(out).unwrap();
        writeln!(out, "{:<34} {:>10}", "experiment (quick)", "wall (s)").unwrap();
        for e in &self.experiments {
            writeln!(out, "{:<34} {:>10.3}", e.name, e.wall_secs).unwrap();
        }
        writeln!(out).unwrap();
        let s = &self.sweep;
        writeln!(
            out,
            "sweep: {} seeds  serial {:.3}s ({:.1} seeds/s)  parallel[{} workers / {} cores] {:.3}s ({:.1} seeds/s)  speedup {:.2}x",
            s.seeds,
            s.serial_secs,
            s.serial_seeds_per_sec(),
            s.workers,
            s.cores,
            s.parallel_secs,
            s.parallel_seeds_per_sec(),
            s.speedup()
        )
        .unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_json_is_well_formed() {
        // A tiny baseline (2-seed sweep) to keep the test fast; the JSON
        // must contain every section and balanced braces/brackets.
        let b = Baseline {
            cores: 4,
            kernel: vec![KernelBench {
                name: "kernel/x".into(),
                wall_secs: 0.5,
                events: 1000,
                profile: None,
            }],
            experiments: vec![ExperimentBench {
                name: "table1".into(),
                wall_secs: 0.25,
            }],
            sweep: SweepBench {
                seeds: 2,
                cores: 4,
                workers: 4,
                serial_secs: 1.0,
                parallel_secs: 0.5,
            },
        };
        let json = b.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"schema\"",
            "\"cores\"",
            "\"kernel\"",
            "\"events_per_sec\"",
            "\"experiments\"",
            "\"sweep\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"speedup\": 2.000000"));
        let table = b.render();
        assert!(table.contains("speedup 2.00x"), "{table}");
    }

    #[test]
    fn kernel_events_per_sec_handles_zero_wall() {
        let k = KernelBench {
            name: "kernel/x".into(),
            wall_secs: 0.0,
            events: 10,
            profile: None,
        };
        assert_eq!(k.events_per_sec(), 0.0);
    }

    #[test]
    fn query_scan_benches_smoke() {
        // The real entries scan 100 MB / 30 GB; the smoke run shrinks to
        // ~200 KB inline and 2x1 MB synthetic but exercises the exact
        // same pipeline, reference scan, and line-count cross-check.
        let benches = query_scan_kernel_benches(100 * 1024, 2, 1024 * 1024, 2);
        assert_eq!(benches.len(), 3);
        let by_name: std::collections::BTreeMap<&str, &KernelBench> =
            benches.iter().map(|b| (b.name.as_str(), b)).collect();
        let streaming = by_name["kernel/query_scan_inline_100mb"];
        let eager = by_name["kernel/query_scan_inline_100mb_eager"];
        let synth = by_name["kernel/query_scan_synthetic_30gb"];
        // Identical corpus -> identical line counts (also asserted
        // inside the harness).
        assert_eq!(streaming.events, eager.events);
        assert!(streaming.events > 1_000);
        // 2 objects x 1 MB of the 23-byte log line.
        assert_eq!(synth.events, 2 * (1024 * 1024 / 23));
    }

    #[test]
    fn gateway_admission_bench_smoke() {
        // The full kernel: one million decisions over a thousand
        // tenants. The harness itself asserts conservation and that both
        // admitted and shed outcomes occurred; here we just check the
        // event accounting.
        let b = gateway_admission_bench();
        assert_eq!(b.name, "gateway/admission_1m_decisions");
        assert_eq!(b.events, 1_000_000);
    }

    #[test]
    fn link_fanin_100k_smoke() {
        // CI gate for the virtual-time fair-queueing scale target: 100k
        // concurrent flows (every sixteenth rate-capped) must fully
        // drain — the helper asserts completion and an empty link — and
        // the event count must stay linear in the flow count, not
        // quadratic as the pre-rewrite O(n)-rescan allocator was.
        let events = link_fanin_at_scale(100_000);
        assert!(
            (200_000..2_000_000).contains(&events),
            "100k-flow fan-in event count off the linear envelope: {events}"
        );
    }

    #[test]
    fn sweep_bench_runs_and_matches_serial() {
        // Smoke: 3 seeds through the real scenario, serial vs parallel.
        let b = run_sweep_bench(3);
        assert_eq!(b.seeds, 3);
        assert!(b.serial_secs > 0.0 && b.parallel_secs > 0.0);
    }
}
