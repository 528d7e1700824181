"""Does the first bounce of an orbit cost what its later bounces cost?

    python3 perfbench/bounce_mix.py --bounces 20 --seeds 3 4 5

The `oracle` workload times only the first `oracle_step` of each orbit;
`confocal verify` runs 100 bounces along each.  This runs
`suite_billiard_oracle(seed, bounces=B)` for each seed, times every
`oracle_step`, and compares the first bounce of each orbit with its later
ones: deciles over orbits (each orbit weighted equally) and the ratio of the
means.  A resample after `GrazingOrSingularError` starts a new orbit.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from confocal import billiard, suites  # noqa: E402


def bounce_times(seeds: list[int], bounces: int) -> list[list[float]]:
    """Durations of the oracle_step calls that returned, per orbit."""
    orbits: list[list[float]] = []
    step, draw = billiard.oracle_step, suites.random_impact_state

    def new_orbit(*args, **kwargs):
        orbits.append([])
        return draw(*args, **kwargs)

    def timed_step(*args, **kwargs):
        t0 = time.perf_counter()
        out = step(*args, **kwargs)
        orbits[-1].append(time.perf_counter() - t0)
        return out

    billiard.oracle_step, suites.random_impact_state = timed_step, new_orbit
    try:
        for seed in seeds:
            suites.suite_billiard_oracle(seed, bounces=bounces)
    finally:
        billiard.oracle_step, suites.random_impact_state = step, draw
    return [o for o in orbits if len(o) > 1]


def _weighted_deciles(groups: list[list[float]]) -> list[float]:
    """Deciles of the pooled values, each group carrying weight 1."""
    pairs = sorted((v, 1.0 / len(g)) for g in groups for v in g)
    out, acc, i = [], 0.0, 0
    for k in range(1, 10):
        while acc + pairs[i][1] < k / 10 * len(groups):
            acc += pairs[i][1]
            i += 1
        out.append(pairs[i][0])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--bounces", type=int, default=20)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    if args.bounces < 2:
        ap.error("--bounces must be at least 2")
    orbits = bounce_times(args.seeds, args.bounces)
    first = [o[0] for o in orbits]
    later = [o[1:] for o in orbits]
    ms = lambda vals: " ".join(f"{1e3 * v:.0f}" for v in vals)  # noqa: E731
    print(f"{len(orbits)} orbits, {sum(map(len, orbits))} bounces")
    print(f"first-bounce deciles (ms): {ms(statistics.quantiles(first, n=10))}")
    print(f"later-bounce deciles (ms): {ms(_weighted_deciles(later))}")
    mean_first = statistics.mean(first)
    mean_later = statistics.mean(statistics.mean(g) for g in later)
    print(f"mean first {1e3 * mean_first:.1f} ms, mean later {1e3 * mean_later:.1f} ms, "
          f"later/first {mean_later / mean_first:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
