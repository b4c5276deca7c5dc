//! The replay workload, untraced and traced, and the per-layer
//! numbers the benchmark's driver yields.

use std::time::Instant;

use faasim::experiments::table1;
use faasim::simcore::SimDuration;
use faasim::Cloud;
use faasim_trace::{replay_with, ReplayConfig, ReplayOutcome};

use crate::audit::{audit, fingerprint, fnv, recorder_samples, same_run, Snapshot};
use crate::driver::{drive, Driven};
use crate::hostspeed::{HostSpeed, NOMINAL_S};
use crate::spans::{self, Layer, LayerAggs};
use crate::stats::{median, peak_rss_mb, quantile, sorted, tail};
use crate::suite::{measure_table1, paper_err_mean, references_of};
use crate::{Checks, Metrics};

/// A replay workload: one repetition replays `cfg` once at each of
/// `subs` seeds derived from the workload seed.
pub struct Shape {
    /// Replay configuration.
    pub cfg: ReplayConfig,
    /// Replays per repetition.
    pub subs: usize,
}

impl Shape {
    /// 100k-arrival replays of 256 apps with no gateway and a retrying
    /// client, at 1,000 req/s. At the 500 req/s of the repository's
    /// `trace/replay_100k_invocations` kernel, 9 of seeds 1–20 fall below
    /// the account concurrency limit for part of the replay; at 1,000
    /// req/s all 20 stay throttled from the 1,001st arrival on. Eight
    /// consecutive replays make one repetition.
    pub fn saturated() -> Shape {
        let mut cfg = ReplayConfig::small();
        cfg.trace.apps = 256;
        cfg.trace.total_rate = 1_000.0;
        cfg.trace.duration = SimDuration::from_mins(4);
        cfg.trace.max_events = 100_000;
        cfg.gateway = None;
        Shape { cfg, subs: 8 }
    }

    fn gateway(&self) -> bool {
        self.cfg.gateway.is_some()
    }
}

/// Seeds of the replays in one repetition: the workload seed first.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| seed.wrapping_add(i << 32)).collect()
}

/// `replay_with` under a finish hook that only reads counters: host
/// seconds, outcome and counters.
fn timed_replay(cfg: &ReplayConfig, seed: u64) -> (f64, ReplayOutcome, Snapshot) {
    let mut snap = Snapshot::default();
    let t = Instant::now();
    let out = replay_with(cfg, seed, &|_| {}, &mut |cloud: &Cloud| {
        snap = Snapshot::take(cloud)
    });
    (t.elapsed().as_secs_f64(), out, snap)
}

/// Simulated totals over the replays of one workload run.
#[derive(Default)]
pub struct SimTotals {
    generated: u64,
    succeeded: u64,
    attempts: u64,
    cold: u64,
    dollars: f64,
    sim_secs: f64,
}

impl SimTotals {
    /// Fold one replay in.
    pub fn add(&mut self, out: &ReplayOutcome) {
        let r = &out.report;
        self.generated += r.generated;
        self.succeeded += r.succeeded;
        self.attempts += r.attempts;
        self.cold += r.cold_starts;
        self.dollars += r.dollars;
        self.sim_secs += r.sim_secs;
    }

    /// `sim_cold_start_rate` and `sim_usd_per_hour`.
    pub fn report(&self, m: &mut Metrics) {
        m.put(
            "sim_cold_start_rate",
            self.cold as f64 / self.attempts.max(1) as f64,
        );
        m.put("sim_usd_per_hour", self.dollars / (self.sim_secs / 3600.0));
    }

    /// Requests that succeeded, over arrivals.
    pub fn ok_share(&self) -> f64 {
        self.succeeded as f64 / self.generated.max(1) as f64
    }
}

/// Zero-arrival replays timed after each timed replay.
const SETUPS_PER_REPLAY: usize = 3;

/// Untraced run: one warm-up repetition (which also gives peak memory and
/// the simulated metrics), then timed `replay_with` repetitions with
/// set-up timed between them, all in reference seconds (see
/// [`HostSpeed`]).
pub fn untraced(shape: &Shape, seed: u64, seconds: f64, checks: &mut Checks, m: &mut Metrics) {
    let cfg = &shape.cfg;
    let gw = shape.gateway();
    let subs = sub_seeds(seed, shape.subs);

    // Warm-up repetition; the process is fresh, so its peak memory is
    // that of one repetition.
    let mut refs = Vec::new();
    let mut totals = SimTotals::default();
    for &s in &subs {
        let (_, out, snap) = timed_replay(cfg, s);
        checks.record(audit(&out, &snap, gw));
        totals.add(&out);
        refs.push(out);
    }
    m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    m.put("ok_share", totals.ok_share());
    totals.report(m);

    // Set-up: the same replay with zero arrivals, timed a few times after
    // every timed repetition, so that its median spans the whole run.
    let mut zero = cfg.clone();
    zero.trace.max_events = 0;
    let mut setups = Vec::new();
    let fps: Vec<u64> = refs.iter().map(fingerprint).collect();
    let mut speed = HostSpeed::new();
    let mut raw = vec![Vec::new(); subs.len()];
    let mut times = vec![Vec::new(); subs.len()];
    let t = Instant::now();
    let mut i = 0;
    while t.elapsed().as_secs_f64() < seconds || times.iter().any(Vec::is_empty) {
        let k = i % subs.len();
        let (secs, out, snap) = timed_replay(cfg, subs[k]);
        let scale = speed.scale_since_last();
        let mut bad = audit(&out, &snap, gw);
        if fingerprint(&out) != fps[k] {
            bad.push(format!(
                "seed {}: repetition changed the fingerprint",
                subs[k]
            ));
        }
        checks.record(bad);
        raw[k].push(secs);
        times[k].push(secs * scale);
        i += 1;
        for _ in 0..SETUPS_PER_REPLAY {
            let (secs, out, _) = timed_replay(&zero, subs[0]);
            checks.record(if out.report.generated == 0 {
                Vec::new()
            } else {
                vec!["zero-arrival replay generated arrivals".to_owned()]
            });
            setups.push(secs * speed.scale_now());
        }
    }
    println!("  replay host seconds per seed: {raw:?}");
    println!("  the same in reference seconds: {times:?}");
    print_probes(&speed);
    let invocations: u64 = refs.iter().map(|o| o.report.invocations).sum();
    println!(
        "  {} timed replays ({} per seed), {invocations} invocations per repetition",
        i,
        i / subs.len()
    );
    let wall: f64 = times.iter().map(|t| median(t)).sum();
    m.put("setup_s", median(&setups));
    m.put("wall_s", wall);
    m.put("inv_per_s", invocations as f64 / wall);

    let t1 = table1::run(&Default::default(), seed);
    m.put(
        "paper_err_mean",
        paper_err_mean(&references_of("table1"), &measure_table1(&t1)),
    );
    print_fingerprint(seed, &fps);
}

/// Print the reference kernel's probes: count, median and range.
pub fn print_probes(speed: &HostSpeed) {
    let p = sorted(speed.probes().to_vec());
    println!(
        "  reference kernel: {} probes, median {} s (nominal {NOMINAL_S} s), range {}..{} s",
        p.len(),
        median(&p),
        p[0],
        p[p.len() - 1]
    );
}

/// Print the workload's fingerprint: a hash over its replays' fingerprints.
fn print_fingerprint(seed: u64, fps: &[u64]) {
    let hex: Vec<String> = fps.iter().map(|f| format!("{f:016x}")).collect();
    let refs: Vec<&str> = hex.iter().map(String::as_str).collect();
    println!("  fingerprint seed={seed} {:016x}", fnv(&refs));
}

/// Totals over the traced driver runs of one workload run.
#[derive(Default)]
pub struct LayerTotals {
    aggs: LayerAggs,
    arrivals: u64,
    inv: u64,
    attempts: u64,
    warm: u64,
    throttled: u64,
    client_attempts: u64,
    polls: u64,
    spawns: u64,
    pushes: u64,
    cancels: u64,
    cascades: u64,
    peak_live: usize,
    peak_pending: usize,
    samples: u64,
    digest_ms: f64,
    report_ms: f64,
    gw_offered: u64,
    gw_admitted: u64,
    gw_rate: u64,
    gw_load: u64,
    gw_breaker: u64,
    gw_peak: u64,
    busy_gb_s: f64,
    resident_gb_s: f64,
    transfers: u64,
    fan_in_sum: f64,
    peak_fan_in: u64,
    reap_calls: u64,
    registered: u64,
    due: Vec<f64>,
    lag: Vec<f64>,
    pre_exec: Vec<f64>,
    exec: Vec<f64>,
    nic: Vec<f64>,
    traced_s: f64,
    untraced_s: f64,
}

fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl LayerTotals {
    /// Fold in one traced driver run, its spans, and the host seconds of
    /// the untraced `replay_with` it reproduced.
    pub fn add(&mut self, mut d: Driven, aggs: &LayerAggs, untraced_s: f64) {
        let r = &d.outcome.report;
        self.aggs.add(aggs);
        self.arrivals += r.generated;
        self.inv += r.invocations;
        self.attempts += r.attempts;
        self.warm += r.attempts - r.cold_starts;
        self.throttled += r.throttled_waits;
        self.client_attempts += d.snapshot.client_attempts;
        let e = &r.engine;
        self.polls += e.task_polls;
        self.spawns += e.tasks_spawned;
        self.pushes += e.timer_pushes;
        self.cancels += e.timer_cancels;
        self.cascades += e.timer_cascades;
        self.peak_live = self.peak_live.max(e.peak_live_tasks);
        self.peak_pending = self.peak_pending.max(e.peak_pending_timers);
        self.samples += recorder_samples(&d.outcome.digest);
        self.digest_ms += d.digest_ms;
        self.report_ms += d.report_ms;
        if let Some(g) = &d.gateway {
            self.gw_offered += g.totals.offered;
            self.gw_admitted += g.totals.admitted;
            self.gw_rate += g.totals.rate_shed();
            self.gw_load += g.totals.load_shed;
            self.gw_breaker += g.totals.breaker_rejected;
            self.gw_peak = self.gw_peak.max(g.peak_in_flight);
        }
        self.busy_gb_s += r.busy_gb_seconds;
        self.resident_gb_s += r.resident_gb_seconds;
        self.transfers += r.nic_transfers;
        self.fan_in_sum += r.nic_mean_fan_in * r.nic_transfers as f64;
        self.peak_fan_in = self.peak_fan_in.max(r.nic_peak_fan_in);
        self.reap_calls += d.reap_calls;
        self.registered += d.registered;
        self.due.append(&mut d.stamps.due_latency);
        self.lag.append(&mut d.stamps.lag);
        self.pre_exec.append(&mut d.stamps.pre_exec);
        self.exec.append(&mut d.stamps.exec);
        self.nic.append(&mut d.stamps.nic);
        self.traced_s += d.total_s;
        self.untraced_s += untraced_s;
    }

    /// The per-layer metrics these runs give.
    pub fn report(self, m: &mut Metrics) {
        let a = |l: Layer| self.aggs.get(l);
        let inv = self.inv as f64;
        let attempts = self.attempts as f64;
        let runs = self.exec.len() as f64;
        let overhead_ns = (self.traced_s - self.untraced_s) * 1e9;
        println!(
            "  tracing overhead: traced {:.3} s - untraced {:.3} s = {:.3} s ({:.0} ns per invocation)",
            self.traced_s,
            self.untraced_s,
            self.traced_s - self.untraced_s,
            per(overhead_ns, inv)
        );
        println!(
            "  host self time per invocation: run (unattributed) {:.0} ns, client {:.0} ns, handler {:.0} ns, nic {:.0} ns, cpu {:.0} ns, gen {:.0} ns, sketch {:.0} ns",
            per(a(Layer::Run).self_ns as f64, inv),
            per(a(Layer::Client).self_ns as f64, inv),
            per(a(Layer::Handler).self_ns as f64, inv),
            per(a(Layer::Nic).self_ns as f64, inv),
            per(a(Layer::Cpu).self_ns as f64, inv),
            per(a(Layer::Gen).self_ns as f64, inv),
            per(a(Layer::Sketch).self_ns as f64, inv),
        );
        m.put("simcore.polls_per_inv", per(self.polls as f64, inv));
        m.put("simcore.spawns_per_inv", per(self.spawns as f64, inv));
        m.put("simcore.timer_pushes_per_inv", per(self.pushes as f64, inv));
        m.put(
            "simcore.timer_cancel_ratio",
            per(self.cancels as f64, self.pushes as f64),
        );
        m.put(
            "simcore.cascades_per_push",
            per(self.cascades as f64, self.pushes as f64),
        );
        m.put("simcore.peak_live_tasks", self.peak_live as f64);
        m.put("simcore.peak_pending_timers", self.peak_pending as f64);
        m.put(
            "simcore.recorder_samples_per_inv",
            per(self.samples as f64, inv),
        );
        m.put(
            "simcore.run_ns_per_inv",
            per(a(Layer::Run).total_ns as f64, inv),
        );
        m.put(
            "simcore.unattributed_ns_per_inv",
            per(a(Layer::Run).self_ns as f64, inv),
        );
        m.put("simcore.digest_ms", self.digest_ms);
        m.put("bench.tracing_overhead_ns_per_inv", per(overhead_ns, inv));

        // `ReplayReport` times a request from its spawn; the due time is
        // earlier by the generator's lag.
        let n = self.due.len();
        let spawned = sorted(self.due.iter().zip(&self.lag).map(|(d, l)| d - l).collect());
        let due = sorted(self.due);
        let (q, tail_s) = tail(&due);
        let (spawn_q, spawn_tail) = tail(&spawned);
        println!(
            "  simulated latency from due time: p50 {:.3} s, q{q} {:.3} s (n={n}, {} beyond); \
             from spawn, as ReplayReport times it: p50 {:.3} s, q{spawn_q} {:.3} s",
            quantile(&due, 0.5),
            tail_s,
            n - (q * n as f64).ceil() as usize,
            quantile(&spawned, 0.5),
            spawn_tail,
        );
        m.put("sim_p50_s", quantile(&due, 0.5));
        m.put("sim_tail_s", tail_s);

        let lag = sorted(self.lag);
        let late = lag.iter().filter(|&&l| l > 0.0).count();
        m.put(
            "trace.gen_ns_per_arrival",
            per(a(Layer::Gen).total_ns as f64, a(Layer::Gen).spans as f64),
        );
        m.put(
            "trace.sketch_ns_per_insert",
            per(
                a(Layer::Sketch).total_ns as f64,
                a(Layer::Sketch).spans as f64,
            ),
        );
        m.put("trace.late_share", per(late as f64, self.arrivals as f64));
        m.put("trace.lag_p50_s", quantile(&lag, 0.5));
        m.put("trace.lag_max_s", lag.last().copied().unwrap_or(0.0));

        m.put(
            "client.self_ns_per_inv",
            per(a(Layer::Client).self_ns as f64, inv),
        );
        m.put(
            "client.polls_per_inv",
            per(a(Layer::Client).spans as f64, inv),
        );

        m.put("gateway.offered_per_inv", per(self.gw_offered as f64, inv));
        m.put(
            "gateway.admit_ratio",
            per(self.gw_admitted as f64, self.gw_offered as f64),
        );
        m.put("gateway.rate_shed", self.gw_rate as f64);
        m.put("gateway.load_shed", self.gw_load as f64);
        m.put("gateway.breaker_rejected", self.gw_breaker as f64);
        m.put("gateway.peak_in_flight", self.gw_peak as f64);

        m.put(
            "resilience.attempts_per_request",
            per(self.client_attempts as f64, inv),
        );

        let pre_exec = sorted(self.pre_exec);
        let exec = sorted(self.exec);
        m.put("faas.warm_ratio", per(self.warm as f64, attempts));
        m.put("faas.throttled_share", per(self.throttled as f64, attempts));
        m.put(
            "faas.packing_density",
            per(self.busy_gb_s, self.resident_gb_s),
        );
        m.put(
            "faas.handler_self_ns_per_attempt",
            per(a(Layer::Handler).self_ns as f64, runs),
        );
        m.put(
            "faas.cpu_ns_per_attempt",
            per(a(Layer::Cpu).total_ns as f64, runs),
        );
        m.put(
            "faas.reap_us_per_call",
            per(a(Layer::Reap).total_ns as f64 / 1e3, self.reap_calls as f64),
        );
        m.put("faas.reap_calls", self.reap_calls as f64);
        m.put(
            "faas.register_us_per_fn",
            per(
                a(Layer::Register).total_ns as f64 / 1e3,
                self.registered as f64,
            ),
        );
        m.put("faas.pre_exec_p50_s", quantile(&pre_exec, 0.5));
        m.put("faas.pre_exec_p99_s", quantile(&pre_exec, 0.99));
        m.put("faas.exec_p99_s", quantile(&exec, 0.99));

        let nic = sorted(self.nic);
        m.put(
            "net.transfers_per_attempt",
            per(self.transfers as f64, attempts),
        );
        m.put("net.peak_fan_in", self.peak_fan_in as f64);
        m.put(
            "net.mean_fan_in",
            per(self.fan_in_sum, self.transfers as f64),
        );
        m.put("net.nic_p99_s", quantile(&nic, 0.99));
        m.put(
            "net.nic_ns_per_transfer",
            per(a(Layer::Nic).self_ns as f64, self.transfers as f64),
        );
        m.put("pricing.report_ms", self.report_ms);
    }
}

/// Traced run: for each seed, the untraced `replay_with` and then the
/// traced driver, which must reproduce it exactly.
pub fn traced(shape: &Shape, seed: u64, checks: &mut Checks, m: &mut Metrics) -> String {
    let gw = shape.gateway();
    let mut totals = LayerTotals::default();
    let mut raw = String::new();
    let mut fps = Vec::new();
    for s in sub_seeds(seed, shape.subs) {
        let (untraced_s, out, snap) = timed_replay(&shape.cfg, s);
        checks.record(audit(&out, &snap, gw));
        spans::start();
        let d = drive(&shape.cfg, s, &|_| {});
        let aggs = spans::stop();
        raw.push_str(&spans::raw_spans_tsv());
        let mut bad = same_run(&out, &d.outcome);
        bad.extend(audit(&d.outcome, &d.snapshot, gw));
        checks.record(bad);
        fps.push(fingerprint(&d.outcome));
        totals.add(d, &aggs, untraced_s);
    }
    totals.report(m);
    print_fingerprint(seed, &fps);
    raw
}
