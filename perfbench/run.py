"""Benchmark of the confocal checks, one workload at a time.

    python3 perfbench/run.py --workload {oracle,flows,checks,all} --seed N \
        --seconds S --trace {0,1}

The program is imported from the `src/` directory next to `perfbench/`.
Every workload is a closed loop with one client: each iteration runs in a
fresh interpreter (`child.py`), one after another, and the next starts only
when the previous has exited.

`--trace 0` measures the end-to-end metrics: iterations repeat while the
next one is expected to end within `--seconds` (at least one runs), and
`wall_s` and `peak_rss_mb` are their medians.  `setup_s` is the median of
SETUP_PROBES fresh interpreters (`setup_probe.py`) that only import the CLI
and load the configs.
`--trace 1` runs one untraced and one traced iteration and reports the
per-layer metrics of the traced one (see NOTES.md).  `--workload all` runs
the three workloads one after another, each printing its own result.

Each iteration passes the correctness gate or the run reports
`"correct": false` and exits 1.  A child that exits nonzero or times out
ends the run with exit 1 and no result; the end of its stderr is printed.
Outputs go to `.perfbench_out/` in the checkout; a run that passes the gate
deletes its CSV and SVG outputs once they are hashed.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = OUT / "digests.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 5
# share of attempted `oracle` bounces that must be compared; every baseline
# run compared all of them
ORACLE_MIN_COMPARED_FRAC = 0.99
CHILD_TIMEOUT_S = 150
CHILD_STDERR_LINES = 40
# one thread per child: the workloads are single-client and sequential
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class ChildFailed(Exception):
    """A child interpreter exited nonzero or timed out."""


def _child(script: str, args: list[str], out_dir: Path) -> None:
    """Run one child to its end; its output goes to logs in `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    err = out_dir / "stderr.log"
    with open(out_dir / "stdout.log", "w") as so, open(err, "w") as se:
        try:
            # run() waits for the child, and kills and reaps it on timeout
            code = subprocess.run([sys.executable, str(BENCH / script), *args],
                                  cwd=ROOT, env=CHILD_ENV, stdout=so, stderr=se,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = f"a timeout after {CHILD_TIMEOUT_S} s"
    if code != 0:
        # the caller's log may be all that is kept of a failed run
        tail = err.read_text(errors="replace").splitlines()[-CHILD_STDERR_LINES:]
        raise ChildFailed(f"{script} {' '.join(args)} ended with {code}; "
                          f"the end of its stderr:\n" + "\n".join(tail))


def _setup_probe(workload: str, out_dir: Path) -> float:
    configs = [str(child.CONFIGS / name) for name in child.WORKLOADS[workload]["configs"]]
    _child("setup_probe.py", [str(child.SRC), *configs], out_dir)
    return json.loads((out_dir / "stdout.log").read_text())["setup_s"]


def _iteration(workload: str, seed: int, out_dir: Path, traced: bool) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out_dir)]
    _child("child.py", args + (["--trace"] if traced else []), out_dir)
    return json.loads((out_dir / "result.json").read_text())


def gate(workload: str, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one iteration.

    A check above its tolerance, a non-finite value, an `oracle` case that
    compared no bounce, a nonzero exit and an uncaught exception each count
    as a failed operation.  A problem makes the run incorrect: a missing or
    extra check, a non-finite value, an exception, an exit code or pass flag
    that disagrees with the values, or `oracle` comparing fewer bounces
    than ORACLE_MIN_COMPARED_FRAC of those it attempted.
    """
    spec = child.WORKLOADS[workload]
    problems = []
    records = result["records"]
    if len(records) != spec["checks"]:
        problems.append(f"{len(records)} checks, expected {spec['checks']}")
    failed = max(0, spec["checks"] - len(records))
    compared = [None] * len(records)
    if workload == "oracle":
        compared, more = _oracle_bounces(result["bounces"], len(records))
        problems += more
    any_check_failed = False
    for r, bounces in zip(records, compared):
        finite = math.isfinite(r["value"])
        passed = finite and r["value"] <= r["threshold"]
        if not finite:
            problems.append(f"{r['name']}: non-finite value {r['value']}")
        if r["reported_pass"] is not None and r["reported_pass"] != passed:
            problems.append(f"{r['name']}: reported pass={r['reported_pass']} "
                            f"for {r['value']} <= {r['threshold']}")
        if bounces == 0:  # its value 0.0 compared nothing
            passed = False
        if not passed:
            failed += 1
            any_check_failed = True
    for c in result["calls"]:
        if c["exception"] is not None:
            problems.append(f"{c['call']}: uncaught exception\n{c['exception']}")
            failed += 1
        elif c["exit"] != 0:
            failed += 1
            if c["exit"] != 1 or not any_check_failed:
                problems.append(f"{c['call']}: exit {c['exit']}")
    return spec["checks"] + spec["calls"], failed, problems


def _oracle_bounces(bounces: dict, n_records: int) -> tuple[list, list[str]]:
    """Bounces compared per `oracle` record, and the problems of the counts."""
    problems = []
    expected = child.ORACLE_CALLS * child.ORACLE_CASES * child.ORACLE_BOUNCES
    if bounces["attempted"] != expected:
        problems.append(f"oracle attempted {bounces['attempted']} bounces, "
                        f"expected {expected}")
    if bounces["compared"] < ORACLE_MIN_COMPARED_FRAC * expected:
        problems.append(f"oracle compared {bounces['compared']} of {expected} bounces, "
                        f"below {ORACLE_MIN_COMPARED_FRAC:g}")
    per_case = bounces["per_case"]
    if len(per_case) != n_records:
        problems.append(f"oracle drew {len(per_case)} cases for {n_records} records")
        per_case = [None] * n_records
    return per_case, problems


def code_hash() -> str:
    """sha256 of the program and benchmark sources the outputs depend on."""
    h = hashlib.sha256()
    for base in (child.SRC / "confocal", BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _check_determinism(workload: str, seed: int, results: list[dict]) -> list[str]:
    """Outputs of every iteration must match each other and any earlier run
    of this seed, with the same sources, in this checkout byte for byte."""
    known = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    key = f"{workload}/{seed}/{code_hash()}"
    reference = known.get(key, results[0]["digests"])
    problems = [f"{name} differs from an earlier run of seed {seed} with these sources"
                for r in results for name in sorted(set(reference) | set(r["digests"]))
                if reference.get(name) != r["digests"].get(name)]
    known[key] = reference
    # a reader never sees a half-written file, even from a concurrent run
    tmp = DIGESTS.with_name(f"{DIGESTS.name}.{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS)
    return problems


def layer_metrics(trace: dict, bounces: dict, overhead: float) -> dict:
    """Every `per_layer` metric of BENCHMARK.json, by its name.

    `<module>.<fn>.{calls,self_s,p50_us,p99_us}` are the traced function's
    aggregates (p99_us only counts from 1000 calls; below that it is 0) and
    `suites.<name>.wall_s` the total time of the suite registered as
    `<name>`.  The other names are the counters computed here.
    """
    funcs = trace["functions"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "p50_us": 0.0, "p99_us": 0.0}
    draws = [e for e in trace["edges"] if e["fn"] == "sampling.random_state"]
    drawn = sum(e["calls"] for e in draws)
    # its retry is a call of itself through the module global
    retries = sum(e["calls"] for e in draws if e["parent"] == "sampling.random_state")
    counters = {
        "billiard.resamples": bounces["resamples"],
        "billiard.bounces_compared_frac": (bounces["compared"] / bounces["attempted"]
                                           if bounces["attempted"] else 0.0),
        "sampling.retries": retries,
        "sampling.accepted_frac": (drawn - retries) / drawn if drawn else 0.0,
        "bench.trace_overhead_frac": overhead,
    }
    m = {}
    for spec in BENCHMARK["per_layer"]:
        name = spec["name"]
        parts = name.split(".")
        if name in counters:
            value = counters[name]
        elif parts[0] == "suites" and parts[-1] == "wall_s":
            suite = ".".join(parts[1:-1])
            value = funcs.get(trace["suites"][suite], empty)["total_s"]
        else:
            fn = ".".join(parts[:-1])
            if fn not in trace["wrapped"]:
                raise KeyError(f"per-layer metric {name}: {fn} is not traced")
            f = funcs.get(fn, empty)
            value = f[parts[-1]]
            if parts[-1] == "p99_us" and f["calls"] < 1000:
                value = 0.0
        m[name] = {"value": value, "unit": spec["unit"]}
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its metrics; True when the gate passed."""
    # one directory per process, so runs that overlap in time never share one
    run_dir = OUT / workload / f"seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    results = []
    if trace:
        results.append(_iteration(workload, seed, run_dir / "untraced", False))
        results.append(_iteration(workload, seed, run_dir / "traced", True))
    else:
        setup = [_setup_probe(workload, run_dir / f"setup{i}") for i in range(SETUP_PROBES)]
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(_iteration(workload, seed, run_dir / f"iter{len(results)}", False))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > seconds:
                break

    attempted = failed = 0
    problems = []
    for r in results:
        a, f, p = gate(workload, r)
        attempted, failed = attempted + a, failed + f
        problems += p
    problems += _check_determinism(workload, seed, results)

    if trace:
        untraced, traced = results
        spans = json.loads((run_dir / "traced" / "trace.json").read_text())
        metrics = layer_metrics(spans, traced["bounces"],
                                traced["wall_s"] / untraced["wall_s"] - 1.0)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in results), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                            "unit": "MB"},
            "pass_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
    correct = not problems
    for p in problems:
        print(f"GATE: {p}", file=sys.stderr)
    if correct:
        # the bulk outputs are hashed; a failed run keeps them to be inspected
        for path in [*run_dir.rglob("*.csv"), *run_dir.rglob("*.svg")]:
            path.unlink()
    print(f"{workload} seed={seed} iterations={len(results)} "
          f"attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.6g} correct={correct}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(child.WORKLOADS) + ["all"],
                    help="one workload, or all three one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "confocal" / "__init__.py").is_file():
        print(f"no confocal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(child.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        correct = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except ChildFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
