"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

For one operation of each kind in every workload's first pass, on the
held-out seed, checks that

* a traced run returns outputs bit-identical to an untraced run,
* two traced runs give identical span counts and rows,
* the traced counts reproduce the facts of the program at the commit that
  defined the benchmark: 34 region_area calls per ideal triangle,
  2 n_dirs + 12 rays per density point (n_dirs 24 in triangles, 64 in
  ball_area), and 23 to 24 gauge rows per generic ray (2 bracket + 12
  bisection + up to 10 Newton, which nearly always runs all 10).  A program
  change that moves one of these on purpose fails here and says which.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import sys

import run


def seed_facts(workload: str, m: dict) -> list:
    """(description, holds) pairs for the workload's seed facts."""
    generic = m["domains.gauge_rows_per_ray.generic"]
    facts = []
    if workload == "ideal-area":
        facts.append(("34 region_area calls per ideal triangle", m["triangles.region_calls_per_triangle"] == 34))
        facts.append(("60 rays per density point (n_dirs 24)", m["measure.rays_per_density_point"] == 60))
    if workload == "ball-area":
        facts.append(("140 rays per density point (n_dirs 64)", m["measure.rays_per_density_point"] == 140))
    if workload == "hyperbolicity-normal-form":
        facts.append(("no density points", m["measure.density_points"] == 0))
    if m["domains.rays.generic"]:
        facts.append((f"23 to 24 gauge rows per generic ray (got {generic:.3f})", 23 <= generic <= 24))
    return facts


def main() -> int:
    run.pin_threads()
    run.load_library()
    from workloads import WORKLOADS

    failures = 0

    def report(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {text}", flush=True)

    for name, build in WORKLOADS.items():
        ops = list({op.kind: op for op in reversed(build(run.HELD_OUT_SEED)(0))}.values())
        plain = [run.execute(op) for op in ops]
        first, tracer_a = run.replay_traced(ops)
        second, tracer_b = run.replay_traced(ops)
        errors = [o.error for o in plain + first + second if o.error is not None]
        report(not errors, f"{name}: {len(ops)} operations pass their checks {errors[:3]}")
        report(all(a.output == b.output == c.output for a, b, c in zip(plain, first, second)),
               f"{name}: traced outputs bit-identical to untraced")
        report(tracer_a.counts() == tracer_b.counts(), f"{name}: two traced runs give identical counts")
        metrics = tracer_a.layer_metrics({i: op.kind for i, op in enumerate(ops)})
        for text, holds in seed_facts(name, metrics):
            report(holds, f"{name}: {text}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
