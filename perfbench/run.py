#!/usr/bin/env python3
"""Build and run the faasim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package in release
mode into $CARGO_TARGET_DIR (default: `.bench_build` in the repository
root), runs it with the given arguments, and passes its output and exit
code through. The last output line must be a result that names exactly the
metrics BENCHMARK.json lists for the trace mode, with their units;
otherwise that line is withheld and the exit code is 1.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself must finish within 180 s; leave room for this
# wrapper.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Why `line` is not a well-formed result, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result must have exactly correct, attempted, failed and metrics"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe, *args], stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    problem = check_result(lines[-1], trace) if lines else "no output"
    if problem:
        print("\n".join(lines[:-1]))
        fail(problem)
    print(run.stdout, end="")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
