"""One workload iteration in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace]

It imports `confocal.cli`, loads the workload's YAML configs, runs the
workload's calls in-process with DIR as working directory, and writes
`result.json` there: wall time, peak RSS, every check record, the exit code
or exception of every call, the bounces `oracle` compared, and a digest of
every deterministic output.  With `--trace` the calls run under
`spans.Tracer`, whose aggregates go to `trace.json`.

Only `run.py` starts this script; the confocal sources are taken from the
`src/` directory of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"

# oracle: how many suite calls, and bounces per case in each call
ORACLE_CALLS = 22
ORACLE_BOUNCES = 1
ORACLE_CASES = 18

FLOWS_SUITES = ("conservation", "reduction-compatibility")
CHECKS_SUITES = ("lax-residual", "bracket-commutation", "peta-relation",
                 "rank-dimension", "caustics", "poncelet", "discrete-lax",
                 "BD-residual", "hierarchy-identities")

# check records each suite returns when it runs to the end
SUITE_CHECKS = {
    "conservation": 12, "reduction-compatibility": 1, "lax-residual": 18,
    "bracket-commutation": 18, "peta-relation": 1, "rank-dimension": 1,
    "caustics": 26, "poncelet": 4, "discrete-lax": 6, "BD-residual": 3,
    "hierarchy-identities": 3,
}

WORKLOADS = {
    "oracle": {
        "configs": (),
        "calls": ORACLE_CALLS,
        "checks": ORACLE_CALLS * ORACLE_CASES,
    },
    "flows": {
        "configs": ("simulate.yaml", "plot.yaml"),
        "calls": 3,
        # simulate: energy and integral drift of each of its 2 runs
        "checks": 4 + sum(SUITE_CHECKS[s] for s in FLOWS_SUITES),
    },
    "checks": {
        "configs": ("billiard.yaml",),
        "calls": 2,
        # billiard: caustic count and drift, det invariance, conjugation
        "checks": sum(SUITE_CHECKS[s] for s in CHECKS_SUITES) + 4,
    },
}


def _setup(workload: str) -> None:
    """Import the CLI and load the workload's YAML, as `setup_probe.py` times."""
    import confocal.cli
    for name in WORKLOADS[workload]["configs"]:
        confocal.cli.load_config(CONFIGS / name)


def _record(name, value, threshold, reported_pass=None) -> dict:
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "reported_pass": reported_pass}


def _cli_call(argv) -> dict:
    import confocal.cli
    try:
        return {"call": " ".join(argv), "exit": confocal.cli.main(argv), "exception": None}
    except Exception:  # an uncaught exception is a reported failure, not a crash
        return {"call": " ".join(argv), "exit": None, "exception": traceback.format_exc()}


def _verify_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    report = json.loads(path.read_text())
    return [_record(c["name"], c["value"], c["threshold"], c["pass"])
            for c in report["checks"]]


class BounceCounter:
    """What `suite_billiard_oracle` really compares, counted from outside.

    The suite skips a bounce on which `jr_step` or `oracle_step` raises
    `GrazingOrSingularError` and draws a fresh state; a case that compares no
    bounce still returns a record with value 0.0.  The counter wraps
    `billiard.jr_step`, `billiard.oracle_step` and the suite's binding of
    `random_impact_state`.  A draw that follows no error starts a case.
    """

    def __init__(self):
        self.attempted = 0      # jr_step calls: one per bounce of the loop
        self.resamples = 0      # GrazingOrSingularErrors of either step
        self.per_case: list[int] = []  # oracle_step returns, per case
        self._pending = False   # an error was raised; the next draw resamples

    def install(self, suites) -> None:
        from confocal.errors import GrazingOrSingularError
        bl = suites.bl
        jr_step, oracle_step, draw = bl.jr_step, bl.oracle_step, suites.random_impact_state

        def counted_jr_step(*args, **kwargs):
            self.attempted += 1
            try:
                return jr_step(*args, **kwargs)
            except GrazingOrSingularError:
                self.resamples += 1
                self._pending = True
                raise

        def counted_oracle_step(*args, **kwargs):
            try:
                out = oracle_step(*args, **kwargs)
            except GrazingOrSingularError:
                self.resamples += 1
                self._pending = True
                raise
            self.per_case[-1] += 1
            return out

        def counted_draw(*args, **kwargs):
            if self._pending:
                self._pending = False
            else:
                self.per_case.append(0)
            return draw(*args, **kwargs)

        bl.jr_step, bl.oracle_step = counted_jr_step, counted_oracle_step
        suites.random_impact_state = counted_draw

    def summary(self) -> dict:
        return {"attempted": self.attempted, "compared": sum(self.per_case),
                "resamples": self.resamples, "per_case": self.per_case}


def _run_oracle(seed: int, counter: BounceCounter) -> tuple[list[dict], list[dict]]:
    from confocal import suites
    counter.install(suites)
    calls, records = [], []
    for i in range(ORACLE_CALLS):
        sub_seed = seed * ORACLE_CALLS + i
        label = f"suite_billiard_oracle(seed={sub_seed}, bounces={ORACLE_BOUNCES})"
        try:
            recs = suites.suite_billiard_oracle(sub_seed, bounces=ORACLE_BOUNCES)
        except Exception:
            calls.append({"call": label, "exit": None, "exception": traceback.format_exc()})
            continue
        calls.append({"call": label, "exit": 0, "exception": None})
        records += [_record(r.name, r.value, r.threshold) for r in recs]
    return calls, records


def _run_flows(seed: int) -> list[dict]:
    s = str(seed)
    return [
        _cli_call(["simulate", "--config", str(CONFIGS / "simulate.yaml"),
                   "--seed", s, "--out", "."]),
        _cli_call(["plot", "--config", str(CONFIGS / "plot.yaml"), "--out", "."]),
        _cli_call(["verify", *[a for n in FLOWS_SUITES for a in ("--suite", n)],
                   "--seed", s, "--out", "."]),
    ]


def _flows_records() -> list[dict]:
    records = []
    path = Path("summary.json")
    if path.exists():
        summary = json.loads(path.read_text())
        for run in summary["runs"]:
            for key in ("energy_drift", "integral_drift"):
                records.append(_record(f"simulate/run{run['run']}/{key}",
                                       float(run[key]), summary["drift_tol"]))
    return records + _verify_records(Path("verify_report.json"))


def _run_checks(seed: int) -> list[dict]:
    s = str(seed)
    return [
        _cli_call(["verify", *[a for n in CHECKS_SUITES for a in ("--suite", n)],
                   "--seed", s, "--out", "."]),
        _cli_call(["billiard", "--config", str(CONFIGS / "billiard.yaml"),
                   "--seed", s, "--out", "."]),
    ]


def _checks_records() -> list[dict]:
    records = _verify_records(Path("verify_report.json"))
    path = Path("billiard_summary.json")
    if path.exists():
        records += [_record(c["name"], c["value"], c["threshold"], c["pass"])
                    for c in json.loads(path.read_text())["checks"]]
    return records


def _digests(records: list[dict]) -> dict:
    """sha256 of every file the calls wrote, and of the records themselves."""
    out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(Path(".").iterdir())
           if p.is_file() and p.name not in ("stdout.log", "stderr.log")}
    text = json.dumps([(r["name"], repr(r["value"]), r["threshold"]) for r in records])
    out["<records>"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def run(workload: str, seed: int, out: Path, traced: bool) -> None:
    _setup(workload)
    import confocal
    if Path(confocal.__file__).resolve().parent != SRC / "confocal":
        raise SystemExit(f"confocal imported from {confocal.__file__}, not {SRC}")
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(confocal)
    os.chdir(out)
    t0 = time.perf_counter()
    counter = BounceCounter()
    if workload == "oracle":
        calls, records = _run_oracle(seed, counter)
    elif workload == "flows":
        calls = _run_flows(seed)
    else:
        calls = _run_checks(seed)
    wall_s = time.perf_counter() - t0
    if workload == "flows":
        records = _flows_records()
    elif workload == "checks":
        records = _checks_records()
    result = {
        "workload": workload, "seed": seed, "traced": traced,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls, "records": records, "bounces": counter.summary(),
        "digests": _digests(records),
    }
    if tracer is not None:
        summary = tracer.summary()
        # registry name of each suite -> traced name of its function
        summary["suites"] = {name: f"suites.{fn.__name__}"
                             for name, fn in confocal.suites.SUITES.items()}
        (out / "trace.json").write_text(json.dumps(summary, indent=1))
    (out / "result.json").write_text(json.dumps(result, indent=1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    run(args.workload, args.seed, args.out.resolve(), args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
