//! Differential tests for the streaming quantile sketch: on traces small
//! enough to materialize every latency sample, the sketch's percentile
//! estimates must sit within its configured relative-error bound of the
//! exact nearest-rank percentiles over the sorted sample vector.

use faasim_simcore::SimRng;
use faasim_trace::{replay, QuantileSketch, ReplayConfig};
use proptest::prelude::*;

/// Exact nearest-rank percentile, the same convention the sketch (and
/// `faasim_simcore::nearest_rank`) uses; kept local as the reference.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

#[test]
fn sketch_matches_exact_percentiles_on_a_50k_replay() {
    let mut cfg = ReplayConfig::small();
    cfg.trace.total_rate = 180.0; // ~54k arrivals over five minutes ...
    cfg.trace.max_events = 50_000; // ... capped at the 50k bound
    cfg.latency_sample_cap = 50_000; // materialize every sample for the diff
    let out = replay(&cfg, 2019, &|_| {});
    assert_eq!(out.latencies.len() as u64, out.report.invocations);
    assert!(out.report.invocations > 40_000, "trace came out too small");

    let mut sorted = out.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let alpha = cfg.sketch_alpha;
    for (q, est) in [
        (0.50, out.report.latency_p50),
        (0.95, out.report.latency_p95),
        (0.99, out.report.latency_p99),
        (0.999, out.report.latency_p999),
    ] {
        let exact = exact_quantile(&sorted, q);
        assert!(
            (est - exact).abs() <= alpha * exact + 1e-12,
            "q={q}: sketch {est} vs exact {exact} (α={alpha})"
        );
    }
    // The mean is tracked exactly (same sum, same insertion order).
    let exact_mean = out.latencies.iter().sum::<f64>() / out.latencies.len() as f64;
    assert!((out.report.latency_mean - exact_mean).abs() <= 1e-9 * exact_mean);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_tracks_exact_quantiles_on_lognormal_data(
        seed in 0u64..10_000,
        n in 100usize..3_000,
        cv in 0.2f64..3.0,
    ) {
        let mut rng = SimRng::stream(seed, "sketch.diff");
        let mut sketch = QuantileSketch::with_default_error();
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            let v = rng.lognormal_mean_cv(0.25, cv);
            sketch.insert(v);
            vals.push(v);
        }
        vals.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(&vals, q);
            let est = sketch.quantile(q);
            prop_assert!(
                (est - exact).abs() <= sketch.relative_error() * exact + 1e-12,
                "q={}: sketch {} vs exact {}", q, est, exact
            );
        }
    }
}
