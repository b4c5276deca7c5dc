//! Checks made from outside after every replay: the cross-layer
//! identities, the calm-run outcome rules, the driver-vs-`replay_with`
//! identity, and the determinism fingerprint.

use faasim::pricing::Service;
use faasim::Cloud;
use faasim_trace::ReplayOutcome;

/// Counters read from a quiesced cloud (through `replay_with`'s finish
/// hook, or by the benchmark's driver) that the report does not carry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `faas.invoke.cold + faas.invoke.warm`: executions the platform ran.
    pub platform_attempts: u64,
    /// Attempts the client's retry layer made (`resil.gateway.attempts`
    /// through the gateway, `resil.faas.attempts` without it).
    pub client_attempts: u64,
    /// Ledger quantity of `faas requests`.
    pub ledger_requests: f64,
    /// Ledger quantity of `faas gb-seconds` (billing rounds each
    /// execution up to the billing increment).
    pub ledger_gb_seconds: f64,
}

impl Snapshot {
    /// Read the counters of `cloud` after its simulation has run.
    pub fn take(cloud: &Cloud) -> Snapshot {
        let rec = &cloud.recorder;
        Snapshot {
            platform_attempts: rec.counter("faas.invoke.cold") + rec.counter("faas.invoke.warm"),
            client_attempts: rec.counter("resil.gateway.attempts")
                + rec.counter("resil.faas.attempts"),
            ledger_requests: cloud.ledger.item_quantity(Service::Faas, "requests"),
            ledger_gb_seconds: cloud.ledger.item_quantity(Service::Faas, "gb-seconds"),
        }
    }
}

/// Histogram samples the recorder holds, summed from its digest.
pub fn recorder_samples(digest: &str) -> u64 {
    digest
        .lines()
        .filter(|l| l.starts_with("hist "))
        .filter_map(|l| {
            l.split(" n=")
                .nth(1)?
                .split(' ')
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// Broken identities of one calm replay; empty when every one holds.
pub fn audit(out: &ReplayOutcome, snap: &Snapshot, gateway: bool) -> Vec<String> {
    let r = &out.report;
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("seed {}: {what}", r.seed));
        }
    };
    check(
        r.invocations == r.generated,
        format!(
            "{} arrivals but {} final outcomes",
            r.generated, r.invocations
        ),
    );
    check(
        r.succeeded + r.failed == r.invocations,
        format!(
            "{} ok + {} failed != {} requests",
            r.succeeded, r.failed, r.invocations
        ),
    );
    check(
        r.attempts == snap.platform_attempts,
        format!(
            "report attempts {} != cold + warm {}",
            r.attempts, snap.platform_attempts
        ),
    );
    check(
        r.nic_transfers == r.attempts,
        format!(
            "NIC transfers {} != attempts {}",
            r.nic_transfers, r.attempts
        ),
    );
    check(
        snap.ledger_requests == r.attempts as f64,
        format!(
            "ledger faas requests {} != attempts {}",
            snap.ledger_requests, r.attempts
        ),
    );
    check(
        snap.ledger_gb_seconds >= r.busy_gb_seconds,
        format!(
            "billed {} GB·s < busy {} GB·s",
            snap.ledger_gb_seconds, r.busy_gb_seconds
        ),
    );
    if gateway {
        let shed = r.gw_rate_shed + r.gw_load_shed + r.gw_breaker_rejected;
        check(
            r.gw_offered == r.gw_admitted + shed,
            format!(
                "gateway offered {} != admitted {} + shed {shed}",
                r.gw_offered, r.gw_admitted
            ),
        );
        check(
            snap.client_attempts == r.gw_offered,
            format!(
                "client attempts {} != gateway offered {}",
                snap.client_attempts, r.gw_offered
            ),
        );
        check(
            r.gw_admitted == r.attempts,
            format!(
                "gateway admitted {} != attempts {}",
                r.gw_admitted, r.attempts
            ),
        );
        // A calm run fails only by shedding.
        check(
            r.failed == r.gw_shed_requests,
            format!(
                "{} failed but {} shed for good",
                r.failed, r.gw_shed_requests
            ),
        );
    } else {
        check(
            r.gw_offered == 0,
            format!("{} offered without a gateway", r.gw_offered),
        );
        check(
            snap.client_attempts == r.attempts,
            format!(
                "client attempts {} != attempts {}",
                snap.client_attempts, r.attempts
            ),
        );
        check(
            r.failed == 0,
            format!("{} requests failed in a calm run", r.failed),
        );
    }
    bad
}

/// 64-bit FNV-1a over `parts`, each followed by a separator byte.
pub fn fnv(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(&[0xff]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a replay: digest, bill and the digest-visible report.
pub fn fingerprint(out: &ReplayOutcome) -> u64 {
    fnv(&[&out.digest, &out.bill, &format!("{:?}", out.report)])
}

/// Differences between two runs that must be the same simulation.
pub fn same_run(want: &ReplayOutcome, got: &ReplayOutcome) -> Vec<String> {
    let mut bad = Vec::new();
    let seed = want.report.seed;
    if got.digest != want.digest {
        bad.push(format!("seed {seed}: recorder digests differ"));
    }
    if got.bill != want.bill {
        bad.push(format!("seed {seed}: bills differ"));
    }
    if format!("{:?}", got.report) != format!("{:?}", want.report) {
        bad.push(format!("seed {seed}: reports differ"));
    }
    if got.report.engine != want.report.engine {
        bad.push(format!("seed {seed}: engine profiles differ"));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_summed_from_histogram_lines() {
        let digest =
            "counter a = 3\nhist x: n=5 mean=1 min=0 max=2\nhist y: n=7 mean=1 min=0 max=2\n";
        assert_eq!(recorder_samples(digest), 12);
    }

    #[test]
    fn fnv_separates_parts() {
        assert_ne!(fnv(&["ab", "c"]), fnv(&["a", "bc"]));
        assert_eq!(fnv(&["x"]), fnv(&["x"]));
    }
}
