//! The faasim benchmark: two workloads, end-to-end metrics from untraced
//! runs, per-layer metrics from a traced run, and a failed run on any
//! broken check. See `README.md` for the workloads and every metric.
//!
//! ```text
//! perfbench --workload replay-saturated|paper-suite|all
//!           [--seed 2019] [--seconds 50] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` (simulation runs checked, and how many broke
//! a check), and `metrics` (every end-to-end metric with `--trace 0`,
//! every per-layer metric with `--trace 1`).

mod audit;
mod driver;
mod hostspeed;
mod replays;
mod spans;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use replays::Shape;

/// What a metric measures: host time (the simulator's cost), host time
/// scaled to a reference host speed, simulated time (what the modelled
/// cloud experiences), or neither.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Host,
    /// Host time scaled to a reference host speed (see `hostspeed.rs`).
    Scaled,
    Sim,
    Other,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Scaled => "host, reference-scaled",
            Kind::Sim => "simulated",
            Kind::Other => "",
        }
    }
}

/// End-to-end metrics, printed for every workload by untraced runs.
const END_TO_END: [(&str, &str, Kind); 8] = [
    ("inv_per_s", "1/s", Kind::Scaled),
    ("wall_s", "s", Kind::Scaled),
    ("setup_s", "s", Kind::Scaled),
    ("peak_rss_mb", "MB", Kind::Host),
    ("sim_cold_start_rate", "ratio", Kind::Sim),
    ("sim_usd_per_hour", "USD/h", Kind::Sim),
    ("ok_share", "ratio", Kind::Sim),
    ("paper_err_mean", "ratio", Kind::Sim),
];

/// Per-layer metrics of the replay layers, printed by traced runs.
const LAYER_METRICS: &[(&str, &str, Kind)] = &[
    // End-to-end simulated latency from each arrival's due time, reported
    // by traced runs: its seed-to-seed spread is wider than any bound an
    // end-to-end metric may have.
    ("sim_p50_s", "s", Kind::Sim),
    ("sim_tail_s", "s", Kind::Sim),
    ("simcore.polls_per_inv", "count/inv", Kind::Other),
    ("simcore.spawns_per_inv", "count/inv", Kind::Other),
    ("simcore.timer_pushes_per_inv", "count/inv", Kind::Other),
    ("simcore.timer_cancel_ratio", "ratio", Kind::Other),
    ("simcore.cascades_per_push", "ratio", Kind::Other),
    ("simcore.peak_live_tasks", "count", Kind::Other),
    ("simcore.peak_pending_timers", "count", Kind::Other),
    ("simcore.recorder_samples_per_inv", "count/inv", Kind::Other),
    ("simcore.run_ns_per_inv", "ns", Kind::Host),
    ("simcore.unattributed_ns_per_inv", "ns", Kind::Host),
    ("simcore.digest_ms", "ms", Kind::Host),
    ("bench.tracing_overhead_ns_per_inv", "ns", Kind::Host),
    ("trace.gen_ns_per_arrival", "ns", Kind::Host),
    ("trace.sketch_ns_per_insert", "ns", Kind::Host),
    ("trace.late_share", "ratio", Kind::Sim),
    ("trace.lag_p50_s", "s", Kind::Sim),
    ("trace.lag_max_s", "s", Kind::Sim),
    ("client.self_ns_per_inv", "ns", Kind::Host),
    ("client.polls_per_inv", "count/inv", Kind::Other),
    ("gateway.offered_per_inv", "count/inv", Kind::Other),
    ("gateway.admit_ratio", "ratio", Kind::Other),
    ("gateway.rate_shed", "count", Kind::Other),
    ("gateway.load_shed", "count", Kind::Other),
    ("gateway.breaker_rejected", "count", Kind::Other),
    ("gateway.peak_in_flight", "count", Kind::Other),
    ("resilience.attempts_per_request", "count/inv", Kind::Other),
    ("faas.warm_ratio", "ratio", Kind::Other),
    ("faas.throttled_share", "ratio", Kind::Other),
    ("faas.packing_density", "ratio", Kind::Sim),
    ("faas.handler_self_ns_per_attempt", "ns", Kind::Host),
    ("faas.cpu_ns_per_attempt", "ns", Kind::Host),
    ("faas.reap_us_per_call", "us", Kind::Host),
    ("faas.reap_calls", "count", Kind::Other),
    ("faas.register_us_per_fn", "us", Kind::Host),
    ("faas.pre_exec_p50_s", "s", Kind::Sim),
    ("faas.pre_exec_p99_s", "s", Kind::Sim),
    ("faas.exec_p99_s", "s", Kind::Sim),
    ("net.transfers_per_attempt", "ratio", Kind::Other),
    ("net.peak_fan_in", "count", Kind::Other),
    ("net.mean_fan_in", "count", Kind::Other),
    ("net.nic_p99_s", "s", Kind::Sim),
    ("net.nic_ns_per_transfer", "ns", Kind::Host),
    ("pricing.report_ms", "ms", Kind::Host),
    ("chaos.violations", "count", Kind::Other),
];

/// Every per-layer metric: the replay layers, then host seconds per paper
/// experiment and host milliseconds per seed per chaos scenario.
fn per_layer() -> Vec<(String, &'static str, Kind)> {
    let mut out: Vec<(String, &'static str, Kind)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit, kind)| (name.to_owned(), unit, kind))
        .collect();
    for e in suite::EXPERIMENTS {
        out.push((format!("core.{e}_s"), "s", Kind::Host));
    }
    for sc in suite::build().scenarios {
        out.push((
            format!("chaos.{}_ms_per_seed", suite::scenario_key(sc.name())),
            "ms",
            Kind::Host,
        ));
    }
    out
}

/// Simulation runs checked, and the violations found.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Checks {
    /// One checked run and what it broke.
    pub fn record(&mut self, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            self.violations.extend(bad);
        }
    }

    /// `runs` checked runs of which `failed` broke something.
    pub fn record_many(&mut self, runs: u64, failed: u64, bad: &[String]) {
        self.attempted += runs;
        self.failed += failed;
        self.violations.extend(bad.iter().cloned());
    }
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Set `name` to `value`.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    ReplaySaturated,
    PaperSuite,
}

const WORKLOADS: [(&str, Workload); 2] = [
    ("replay-saturated", Workload::ReplaySaturated),
    ("paper-suite", Workload::PaperSuite),
];

struct Args {
    workloads: Vec<(&'static str, Workload)>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <replay-saturated|paper-suite|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 2019,
        seconds: 50.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|(name, _)| *name == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                args.workloads = vec![*w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// Write the raw spans of a traced run under `.bench_out/`.
fn write_spans(workload: &str, seed: u64, tsv: &str) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tsv)) {
        Ok(()) => println!(
            "  raw spans: {} ({} spans)",
            path.display(),
            tsv.lines().count() - 1
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Run one workload and print its metrics; true when every check held.
fn run(name: &str, w: Workload, args: &Args) -> bool {
    println!(
        "perfbench workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    let mut checks = Checks::default();
    let mut m = Metrics::default();
    let shape = match w {
        Workload::ReplaySaturated => Some(Shape::saturated()),
        Workload::PaperSuite => None,
    };
    match (shape, args.trace) {
        (Some(shape), false) => {
            replays::untraced(&shape, args.seed, args.seconds, &mut checks, &mut m)
        }
        (Some(shape), true) => {
            let raw = replays::traced(&shape, args.seed, &mut checks, &mut m);
            write_spans(name, args.seed, &raw);
        }
        (None, false) => suite::untraced(args.seed, args.seconds, &mut checks, &mut m),
        (None, true) => {
            let raw = suite::traced(args.seed, &mut checks, &mut m);
            write_spans(name, args.seed, &raw);
        }
    }

    let wanted: Vec<(String, &str, Kind)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, k)| (n.to_owned(), u, k))
            .collect()
    };
    let mut json = String::new();
    for (i, (metric, unit, kind)) in wanted.iter().enumerate() {
        // A per-layer metric of a layer this workload does not reach is 0;
        // an end-to-end metric must be measured, finite and nonzero.
        let value = m.0.get(metric).copied().unwrap_or(0.0);
        if !value.is_finite() || (!args.trace && value == 0.0) {
            checks.record(vec![format!("{metric} = {value}")]);
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {metric:<40} {value:>18} {unit:<9} {}", kind.label());
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{metric}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    for v in &checks.violations {
        println!("  CHECK FAILED: {v}");
    }
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checks.attempted.max(1),
        checks.failed
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workloads.as_slice() {
        [(name, w)] => run(name, *w, &args),
        // Each workload gets a fresh process, so that its peak memory is
        // its own.
        many => many.iter().all(|(name, _)| {
            let status = std::process::Command::new(
                std::env::current_exe().expect("path of this executable"),
            )
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("run a workload in a child process");
            status.success()
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<x>"` values listed under `key` in BENCHMARK.json.
    fn listed(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let section = &json[start..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("quoted").to_owned())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_owned()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_owned()).collect();
        assert_eq!(listed("workloads"), workloads);
    }
}
