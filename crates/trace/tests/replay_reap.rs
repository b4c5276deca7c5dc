//! The keep-alive janitor running *during* a replay must never strand a
//! busy container, double-count cold starts, or perturb determinism —
//! the reap/evict interaction the warm-container index has to survive.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use faasim_simcore::SimDuration;
use faasim_trace::{replay, ConfigError, ReplayConfig};

/// A short-keep-alive replay where the reaper actually fires mid-trace:
/// containers idle five seconds are reclaimed every second, so functions
/// repeatedly expire and cold-start again while traffic is in flight.
fn churny_cfg() -> ReplayConfig {
    let mut cfg = ReplayConfig::small();
    cfg.trace.max_events = 2_000;
    cfg.retry = None; // one attempt per event ⇒ exact accounting below
    cfg.reap_every = SimDuration::from_secs(1);
    cfg.profile.faas.container_idle_timeout = SimDuration::from_secs(5);
    cfg
}

#[test]
fn aggressive_mid_replay_reaping_keeps_cold_start_accounting_exact() {
    let out = replay(&churny_cfg(), 17, &|_| {});
    let r = &out.report;
    assert_eq!(r.invocations, r.generated, "requests went missing");
    assert_eq!(r.succeeded + r.failed, r.invocations);
    assert_eq!(r.failed, 0, "reaping must never kill a busy container");
    // With retries disabled, the platform sees exactly one execution per
    // trace event: cold + warm must tile the attempts with no double
    // counting, even though the janitor deleted containers all along.
    assert_eq!(r.attempts, r.invocations, "no retries ⇒ one attempt per event");
    assert!(
        r.cold_starts >= r.distinct_functions,
        "every function's first execution is necessarily cold"
    );
    assert!(r.cold_starts <= r.attempts);
    // The short keep-alive must actually bite: far more cold starts than
    // the one-per-function floor.
    assert!(
        r.cold_starts > 2 * r.distinct_functions,
        "janitor never fired: {} colds for {} functions",
        r.cold_starts,
        r.distinct_functions
    );
}

#[test]
fn replay_under_aggressive_reaping_stays_deterministic() {
    let a = replay(&churny_cfg(), 17, &|_| {});
    let b = replay(&churny_cfg(), 17, &|_| {});
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.report, b.report);
    assert_eq!(a.bill, b.bill);
}

#[test]
fn validate_rejects_knobs_the_replay_cannot_run_with() {
    assert_eq!(ReplayConfig::small().validate(), Ok(()));
    let zero_reap = ReplayConfig {
        reap_every: SimDuration::ZERO,
        ..ReplayConfig::small()
    };
    assert_eq!(zero_reap.validate(), Err(ConfigError::ZeroReapInterval));
    for alpha in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
        let cfg = ReplayConfig {
            sketch_alpha: alpha,
            ..ReplayConfig::small()
        };
        assert!(
            matches!(cfg.validate(), Err(ConfigError::SketchAlpha(_))),
            "alpha {alpha} accepted"
        );
    }
}

/// A zero reap interval used to re-arm the reaper at the current instant
/// forever, so simulated time never advanced and the replay hung. It must
/// now be refused at the entry point, before any traffic flows.
#[test]
fn zero_reap_interval_panics_at_entry_instead_of_hanging() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let mut cfg = ReplayConfig::small();
        cfg.trace.max_events = 200;
        cfg.reap_every = SimDuration::ZERO;
        let result = std::panic::catch_unwind(|| replay(&cfg, 7, &|_| {}).report.invocations);
        let _ = tx.send(result.map_err(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }));
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(Err(msg)) => assert!(msg.contains("reap_every"), "unexpected panic: {msg}"),
        Ok(Ok(n)) => panic!("replay with reap_every = 0 ran {n} invocations"),
        Err(_) => panic!("replay with reap_every = 0 hung"),
    }
}
