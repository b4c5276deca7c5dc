//! `make bench-compare`: the regression gate over the wall-clock
//! baseline.
//!
//! Re-runs the [`crate::wallclock`] suite and diffs it against the
//! committed `BENCH_baseline.json`: kernel benches on **events/sec**,
//! experiments on **wall-clock ratio**, and the chaos sweep on
//! **seeds/sec** (per-seed normalized, so a 4-seed CI smoke gates
//! against a 64-seed baseline; the parallel arm only when the baseline
//! machine had enough cores for its number to mean anything and the
//! worker count matches the baseline's). Any entry more than the
//! tolerance
//! (default 25%) slower than the baseline fails the gate with a nonzero
//! exit, so a PR that quietly regresses the simulator's throughput
//! turns red in CI.
//!
//! The baseline file is our own schema (`faasim-bench/wallclock/1`) and
//! the build is offline, so parsing is a small hand-rolled extractor
//! rather than an external JSON dependency.

use std::fmt::Write as _;

use crate::wallclock::Baseline;

/// The subset of `BENCH_baseline.json` the gate compares against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BaselineNumbers {
    /// Kernel bench name → events per host second.
    pub kernel: Vec<(String, f64)>,
    /// Experiment name → host seconds.
    pub experiments: Vec<(String, f64)>,
    /// Chaos-sweep throughput, if the baseline recorded one.
    pub sweep: Option<SweepNumbers>,
}

/// The baseline's chaos-sweep arm.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepNumbers {
    /// Seeds the baseline swept.
    pub seeds: f64,
    /// Host cores the baseline machine had (0 when the baseline predates
    /// recording it). A parallel arm measured on fewer than
    /// `MIN_PARALLEL_CORES` cores is contention noise, not a speedup.
    pub cores: f64,
    /// Worker threads its parallel arm used.
    pub workers: f64,
    /// Host seconds, serial arm.
    pub serial_secs: f64,
    /// Host seconds, parallel arm.
    pub parallel_secs: f64,
}

/// One entry that breached the tolerance.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Bench or experiment name.
    pub name: String,
    /// Which metric regressed (`events/sec` or `wall_secs`).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
}

/// Extract a `"key": "string"` field from a flat JSON object body.
fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')? + start;
    Some(obj[start..end].to_owned())
}

/// Extract a `"key": <number>` field from a flat JSON object body.
fn field_f64(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The body of the `"key": [ ... ]` array in `json`.
fn array_section<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": [");
    let start = json.find(&pat)? + pat.len();
    let end = json[start..].find(']')? + start;
    Some(&json[start..end])
}

/// The body of the `"key": { ... }` object in `json`. Scoping matters:
/// keys like `"cores"` appear both top-level and inside `"sweep"`, so
/// sweep fields must be extracted from this section, never the whole
/// file.
fn object_section<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": {{");
    let start = json.find(&pat)? + pat.len();
    let end = json[start..].find('}')? + start;
    Some(&json[start..end])
}

/// Split an array body into the `{...}` object bodies it contains.
fn objects(section: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = section;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            break;
        };
        out.push(&rest[open + 1..open + close]);
        rest = &rest[open + close + 1..];
    }
    out
}

/// Parse the committed baseline. Returns `None` if the schema line or a
/// required section is missing — regenerate with `make bench`.
pub fn parse_baseline(json: &str) -> Option<BaselineNumbers> {
    if !json.contains("\"schema\": \"faasim-bench/wallclock/1\"") {
        return None;
    }
    let mut numbers = BaselineNumbers::default();
    for obj in objects(array_section(json, "kernel")?) {
        numbers
            .kernel
            .push((field_str(obj, "name")?, field_f64(obj, "events_per_sec")?));
    }
    for obj in objects(array_section(json, "experiments")?) {
        numbers
            .experiments
            .push((field_str(obj, "name")?, field_f64(obj, "wall_secs")?));
    }
    // Older baselines may predate sweep gating: absent numbers simply
    // leave the sweep ungated rather than rejecting the file.
    numbers.sweep = object_section(json, "sweep").and_then(|obj| {
        Some(SweepNumbers {
            seeds: field_f64(obj, "seeds")?,
            // Absent in pre-cores baselines: 0 means "unknown", which
            // (like any count below MIN_PARALLEL_CORES) skips the
            // parallel-arm gate.
            cores: field_f64(obj, "cores").unwrap_or(0.0),
            workers: field_f64(obj, "workers")?,
            serial_secs: field_f64(obj, "serial_secs")?,
            parallel_secs: field_f64(obj, "parallel_secs")?,
        })
    });
    Some(numbers)
}

/// Experiments faster than this in both runs are never flagged: at
/// sub-10 ms scale the measurement is scheduler noise, not a trend.
const WALL_NOISE_FLOOR_SECS: f64 = 0.010;

/// A sweep arm faster than this (in either run) is never gated: a
/// handful of smoke seeds finishes in milliseconds, where per-seed
/// normalization amplifies startup noise instead of measuring a trend.
const SWEEP_NOISE_FLOOR_SECS: f64 = 0.050;

/// Minimum baseline core count for the parallel-sweep arm to be gated.
/// A baseline recorded on a 1- or 2-core box shows a ~1.0x (or worse)
/// parallel "speedup" that is pool overhead and scheduler contention,
/// not a throughput trend worth holding future runs to.
const MIN_PARALLEL_CORES: f64 = 4.0;

/// Diff `current` against `baseline` with a relative `tolerance`
/// (0.25 = fail beyond 25% slower). Returns the human-readable report
/// and every regression found. Entries present on only one side are
/// reported but never fail the gate — renames and new benches are not
/// regressions.
pub fn compare(
    baseline: &BaselineNumbers,
    current: &Baseline,
    tolerance: f64,
) -> (String, Vec<Regression>) {
    let mut out = String::new();
    let mut regressions = Vec::new();
    let lookup = |side: &[(String, f64)], name: &str| -> Option<f64> {
        side.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    };

    writeln!(
        out,
        "{:<34} {:>14} {:>14} {:>8}  verdict",
        "kernel bench", "base ev/s", "now ev/s", "ratio"
    )
    .unwrap();
    for k in &current.kernel {
        let now = k.events_per_sec();
        let Some(base) = lookup(&baseline.kernel, &k.name) else {
            writeln!(out, "{:<34} {:>14} {now:>14.0} {:>8}  new", k.name, "-", "-").unwrap();
            continue;
        };
        // Kernel benches regress when throughput drops.
        let ratio = now / base.max(1e-9);
        let bad = ratio < 1.0 - tolerance;
        writeln!(
            out,
            "{:<34} {base:>14.0} {now:>14.0} {ratio:>7.2}x  {}",
            k.name,
            if bad { "REGRESSION" } else { "ok" }
        )
        .unwrap();
        if bad {
            regressions.push(Regression {
                name: k.name.clone(),
                metric: "events/sec",
                baseline: base,
                current: now,
            });
        }
    }

    writeln!(out).unwrap();
    writeln!(
        out,
        "{:<34} {:>14} {:>14} {:>8}  verdict",
        "experiment", "base wall(s)", "now wall(s)", "ratio"
    )
    .unwrap();
    for e in &current.experiments {
        let now = e.wall_secs;
        let Some(base) = lookup(&baseline.experiments, &e.name) else {
            writeln!(out, "{:<34} {:>14} {now:>14.3} {:>8}  new", e.name, "-", "-").unwrap();
            continue;
        };
        // Experiments regress when wall-clock grows.
        let ratio = now / base.max(1e-9);
        let bad =
            ratio > 1.0 + tolerance && (now > WALL_NOISE_FLOOR_SECS || base > WALL_NOISE_FLOOR_SECS);
        writeln!(
            out,
            "{:<34} {base:>14.3} {now:>14.3} {ratio:>7.2}x  {}",
            e.name,
            if bad { "REGRESSION" } else { "ok" }
        )
        .unwrap();
        if bad {
            regressions.push(Regression {
                name: e.name.clone(),
                metric: "wall_secs",
                baseline: base,
                current: now,
            });
        }
    }
    for (name, _) in &baseline.experiments {
        if !current.experiments.iter().any(|e| &e.name == name) {
            writeln!(out, "{name:<34} dropped from suite (not a failure)").unwrap();
        }
    }

    writeln!(out).unwrap();
    let s = &current.sweep;
    match &baseline.sweep {
        None => {
            writeln!(out, "sweep: baseline has no sweep numbers (not gated)").unwrap();
        }
        Some(b) => {
            // Seeds/sec is already per-seed normalized: the serial arm
            // scales linearly in seed count, so a 4-seed smoke gates
            // cleanly against a 64-seed baseline.
            let base_sps = b.seeds / b.serial_secs.max(1e-9);
            let now_sps = s.serial_seeds_per_sec();
            let ratio = now_sps / base_sps.max(1e-9);
            let measurable =
                b.serial_secs > SWEEP_NOISE_FLOOR_SECS && s.serial_secs > SWEEP_NOISE_FLOOR_SECS;
            let bad = measurable && ratio < 1.0 - tolerance;
            writeln!(
                out,
                "{:<34} {base_sps:>14.1} {now_sps:>14.1} {ratio:>7.2}x  {}",
                format!("sweep/serial ({} seeds)", s.seeds),
                if bad {
                    "REGRESSION"
                } else if measurable {
                    "ok"
                } else {
                    "too fast to gate"
                }
            )
            .unwrap();
            if bad {
                regressions.push(Regression {
                    name: "sweep/serial".to_owned(),
                    metric: "seeds/sec",
                    baseline: base_sps,
                    current: now_sps,
                });
            }
            // The parallel arm's fan-out overhead depends on the pool
            // size, which does not normalize away: gate it only when
            // the baseline machine had enough cores for its parallel
            // number to mean anything, and this machine used the same
            // worker count as the baseline.
            if b.cores < MIN_PARALLEL_CORES {
                writeln!(
                    out,
                    "sweep/parallel: baseline measured on {} core(s) < {} — \
                     parallel ratio is contention noise, not gated",
                    b.cores as u64, MIN_PARALLEL_CORES as u64
                )
                .unwrap();
            } else if (s.workers as f64 - b.workers).abs() < 0.5 {
                let base_psps = b.seeds / b.parallel_secs.max(1e-9);
                let now_psps = s.parallel_seeds_per_sec();
                let ratio = now_psps / base_psps.max(1e-9);
                let measurable = b.parallel_secs > SWEEP_NOISE_FLOOR_SECS
                    && s.parallel_secs > SWEEP_NOISE_FLOOR_SECS;
                let bad = measurable && ratio < 1.0 - tolerance;
                writeln!(
                    out,
                    "{:<34} {base_psps:>14.1} {now_psps:>14.1} {ratio:>7.2}x  {}",
                    format!("sweep/parallel ({} workers)", s.workers),
                    if bad {
                        "REGRESSION"
                    } else if measurable {
                        "ok"
                    } else {
                        "too fast to gate"
                    }
                )
                .unwrap();
                if bad {
                    regressions.push(Regression {
                        name: "sweep/parallel".to_owned(),
                        metric: "seeds/sec",
                        baseline: base_psps,
                        current: now_psps,
                    });
                }
            } else {
                writeln!(
                    out,
                    "sweep/parallel: {} workers vs baseline {} (not gated)",
                    s.workers, b.workers
                )
                .unwrap();
            }
        }
    }

    writeln!(out).unwrap();
    if regressions.is_empty() {
        writeln!(
            out,
            "bench-compare: OK — no entry more than {:.0}% slower than baseline",
            tolerance * 100.0
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "bench-compare: FAIL — {} entr{} beyond the {:.0}% tolerance",
            regressions.len(),
            if regressions.len() == 1 { "y" } else { "ies" },
            tolerance * 100.0
        )
        .unwrap();
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallclock::{ExperimentBench, KernelBench, SweepBench};

    fn sample_current() -> Baseline {
        Baseline {
            cores: 1,
            kernel: vec![KernelBench {
                name: "kernel/x".into(),
                wall_secs: 1.0,
                events: 1_000_000,
                profile: None,
            }],
            experiments: vec![
                ExperimentBench {
                    name: "table1".into(),
                    wall_secs: 0.5,
                },
                ExperimentBench {
                    name: "data_shipping_paper_scale".into(),
                    wall_secs: 0.3,
                },
            ],
            sweep: SweepBench {
                seeds: 4,
                cores: 1,
                workers: 1,
                serial_secs: 1.0,
                parallel_secs: 1.0,
            },
        }
    }

    #[test]
    fn roundtrip_through_json_is_clean() {
        let current = sample_current();
        let parsed = parse_baseline(&current.to_json()).expect("parse own output");
        assert_eq!(parsed.kernel, vec![("kernel/x".to_owned(), 1_000_000.0)]);
        assert_eq!(parsed.experiments.len(), 2);
        // Comparing a run against its own numbers never regresses.
        let (report, regressions) = compare(&parsed, &current, 0.25);
        assert!(regressions.is_empty(), "{report}");
        assert!(report.contains("bench-compare: OK"));
    }

    #[test]
    fn slow_kernel_and_experiment_fail_the_gate() {
        let current = sample_current();
        let mut base = parse_baseline(&current.to_json()).unwrap();
        base.kernel[0].1 = 2_000_000.0; // we now run at half that: fail
        base.experiments[0].1 = 0.2; // we now take 2.5x as long: fail
        let (report, regressions) = compare(&base, &current, 0.25);
        assert_eq!(regressions.len(), 2, "{report}");
        assert_eq!(regressions[0].metric, "events/sec");
        assert_eq!(regressions[1].metric, "wall_secs");
        assert!(report.contains("bench-compare: FAIL"));
    }

    #[test]
    fn tolerance_and_noise_floor_are_respected() {
        let current = sample_current();
        let mut base = parse_baseline(&current.to_json()).unwrap();
        // 20% slower than baseline: within the 25% tolerance.
        base.experiments[0].1 = current.experiments[0].wall_secs / 1.2;
        let (_, regressions) = compare(&base, &current, 0.25);
        assert!(regressions.is_empty());
        // Sub-10ms entries never regress, whatever the ratio.
        let mut tiny = sample_current();
        tiny.experiments[0].wall_secs = 0.009;
        base.experiments[0].1 = 0.001;
        let (_, regressions) = compare(&base, &tiny, 0.25);
        assert!(regressions.is_empty());
    }

    #[test]
    fn renames_and_new_entries_do_not_fail() {
        let current = sample_current();
        let mut base = parse_baseline(&current.to_json()).unwrap();
        base.experiments[0].0 = "renamed_away".into();
        let (report, regressions) = compare(&base, &current, 0.25);
        assert!(regressions.is_empty(), "{report}");
        assert!(report.contains("new"));
        assert!(report.contains("dropped from suite"));
    }

    #[test]
    fn sweep_gate_normalizes_across_seed_counts() {
        // Current run: 4 seeds in 1 s = 4 seeds/s on both arms.
        let current = sample_current();
        let mut base = parse_baseline(&current.to_json()).unwrap();
        // Baseline took 64 seeds in 16 s — the same 4 seeds/s — so a
        // 16x smaller smoke run still gates clean.
        base.sweep = Some(SweepNumbers {
            seeds: 64.0,
            cores: 8.0,
            workers: 1.0,
            serial_secs: 16.0,
            parallel_secs: 16.0,
        });
        let (report, regressions) = compare(&base, &current, 0.25);
        assert!(regressions.is_empty(), "{report}");
        // Baseline at 8 seeds/s: we now run at half that rate — fail,
        // on both arms (workers match).
        base.sweep = Some(SweepNumbers {
            seeds: 64.0,
            cores: 8.0,
            workers: 1.0,
            serial_secs: 8.0,
            parallel_secs: 8.0,
        });
        let (report, regressions) = compare(&base, &current, 0.25);
        assert_eq!(regressions.len(), 2, "{report}");
        assert_eq!(regressions[0].name, "sweep/serial");
        assert_eq!(regressions[0].metric, "seeds/sec");
        assert_eq!(regressions[1].name, "sweep/parallel");
        assert!(report.contains("bench-compare: FAIL"));
    }

    #[test]
    fn sweep_parallel_arm_gated_only_with_matching_workers() {
        let current = sample_current(); // parallel arm: 1 worker
        let mut base = parse_baseline(&current.to_json()).unwrap();
        base.sweep = Some(SweepNumbers {
            seeds: 64.0,
            cores: 8.0,
            workers: 8.0, // baseline machine fanned out 8-wide
            serial_secs: 16.0,
            parallel_secs: 2.0, // 32 seeds/s we could never match 1-wide
        });
        let (report, regressions) = compare(&base, &current, 0.25);
        assert!(regressions.is_empty(), "{report}");
        assert!(report.contains("not gated"), "{report}");
    }

    #[test]
    fn sweep_parallel_arm_skipped_when_baseline_cores_low() {
        let current = sample_current();
        let mut base = parse_baseline(&current.to_json()).unwrap();
        // Baseline's parallel arm was measured on a 1-core box: even an
        // arbitrarily bad parallel ratio must not gate.
        base.sweep = Some(SweepNumbers {
            seeds: 64.0,
            cores: 1.0,
            workers: 1.0,
            serial_secs: 16.0,
            parallel_secs: 0.5, // 128 seeds/s "speedup" no 1-wide run matches
        });
        let (report, regressions) = compare(&base, &current, 0.25);
        assert!(regressions.is_empty(), "{report}");
        assert!(
            report.contains("parallel ratio is contention noise, not gated"),
            "{report}"
        );
        // The serial arm is still gated: half its 4 seeds/s rate fails.
        base.sweep.as_mut().unwrap().serial_secs = 8.0;
        let (report, regressions) = compare(&base, &current, 0.25);
        assert_eq!(regressions.len(), 1, "{report}");
        assert_eq!(regressions[0].name, "sweep/serial");
    }

    #[test]
    fn sweep_noise_floor_and_missing_numbers_skip_the_gate() {
        // A millisecond-scale smoke sweep is never gated.
        let mut current = sample_current();
        current.sweep.serial_secs = 0.004;
        current.sweep.parallel_secs = 0.004;
        let mut base = parse_baseline(&sample_current().to_json()).unwrap();
        base.sweep = Some(SweepNumbers {
            seeds: 64.0,
            cores: 8.0,
            workers: 1.0,
            serial_secs: 1.0, // 64 seeds/s; we measure 1000/s anyway
            parallel_secs: 1.0,
        });
        let (report, regressions) = compare(&base, &current, 0.25);
        assert!(regressions.is_empty(), "{report}");
        assert!(report.contains("too fast to gate"), "{report}");
        // A pre-sweep-gate baseline leaves the sweep ungated.
        base.sweep = None;
        let (report, regressions) = compare(&base, &current, 0.25);
        assert!(regressions.is_empty(), "{report}");
        assert!(report.contains("no sweep numbers"), "{report}");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("").is_none());
        assert!(parse_baseline("{\"schema\": \"other/2\"}").is_none());
        let valid = sample_current().to_json();
        assert!(parse_baseline(&valid.replace("\"kernel\"", "\"k\"")).is_none());
    }
}
