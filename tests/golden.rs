//! Golden digest matrix: every chaos scenario at seeds 1–4, pinned to a
//! committed file so a refactor that claims "same behaviour" is checked
//! against the behaviour the repository had before it.
//!
//! Each line of `tests/golden/digests.txt` is
//! `<scenario> seed=<n> digest=<fx> bill=<fx>`: the FxHash of the
//! scenario's recorder digest and of its bill. The scenario list is the
//! one the `paper-suite` benchmark sweeps: CrdtSync, QueuePipeline,
//! LinkChurn, NoisyNeighbor calm/hostile, TraceReplay small calm/hostile,
//! and the sixteen experiment twins (calm, then hostile).
//!
//! `golden_digests_match` diffs against the file and prints every line
//! that moved. After an intended behaviour change, regenerate with
//! `make golden` (which runs the ignored `regenerate_golden_digests`)
//! and say in the change log which lines moved.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use faasim_chaos::{
    experiment_scenarios, CrdtSync, LinkChurn, NoisyNeighbor, QueuePipeline, Scenario, TraceReplay,
};
use faasim_simcore::FxHasher;

const SEEDS: [u64; 4] = [1, 2, 3, 4];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/digests.txt")
}

fn scenarios() -> Vec<Box<dyn Scenario>> {
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
    scenarios
}

fn fx(text: &str) -> u64 {
    let mut h = FxHasher::default();
    text.hash(&mut h);
    h.finish()
}

/// The matrix as the current code produces it, one line per
/// (scenario, seed), newline-terminated.
fn current() -> String {
    let mut out = String::new();
    for sc in scenarios() {
        for seed in SEEDS {
            let r = sc.run(seed);
            writeln!(
                out,
                "{} seed={seed} digest={:016x} bill={:016x}",
                sc.name(),
                fx(&r.digest),
                fx(&r.bill)
            )
            .expect("write to String");
        }
    }
    out
}

#[test]
fn golden_digests_match() {
    let path = golden_path();
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e} (run `make golden`)", path.display()));
    let got = current();
    if got == expected {
        return;
    }
    let mut moved = String::new();
    let (exp, now): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), got.lines().collect());
    for i in 0..exp.len().max(now.len()) {
        let (e, g) = (exp.get(i).copied(), now.get(i).copied());
        if e != g {
            writeln!(
                moved,
                "- {}\n+ {}",
                e.unwrap_or("<none>"),
                g.unwrap_or("<none>")
            )
            .expect("write to String");
        }
    }
    panic!(
        "golden digest matrix moved ({}):\n{moved}\
         regenerate with `make golden` only if the change is intended",
        path.display()
    );
}

#[test]
#[ignore = "rewrites tests/golden/digests.txt; run via `make golden`"]
fn regenerate_golden_digests() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
    std::fs::write(&path, current()).expect("write golden digests");
}
