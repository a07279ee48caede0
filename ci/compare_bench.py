#!/usr/bin/env python3
"""Compare a freshly generated BENCH_*.json against the committed copy.

Usage: compare_bench.py <bin> <record>

The benchmark binaries self-gate their hardware-independent invariants
(determinism, conservation, batched >= singleton) and exit non-zero on
violation before this script ever runs. What this script adds is the
*record-level* comparison against the committed JSON:

* every record must parse, both fresh and committed (a half-written or
  hand-edited record fails CI here, not at the next unlucky release);
* structural metrics that must not regress are gated per bin —
  generously, because CI containers vary wildly in cores and load:
    - bench_optimizer: cache hit rate is structural (recurring
      sub-plans in the suite) and must stay >= 0.90 at any scale;
      allocations per warm-cache plan are deterministic (a counting
      allocator, not a clock) and must not rise above the committed
      record;
    - bench_serve_net: correctness counters must be clean and fresh
      loopback throughput must be at least 10% of the committed qps —
      an order-of-magnitude collapse is a serving regression, a slow
      runner is not.

Timing fields are printed side by side for the log but never gated:
the committed record and the CI runner are different machines, and the
records carry an `environment` caveat saying exactly that.
"""

import json
import subprocess
import sys


def load_fresh(path):
    with open(path) as f:
        return json.load(f)


def load_committed(path):
    out = subprocess.check_output(["git", "show", f"HEAD:{path}"])
    return json.loads(out)


def gate_optimizer(fresh, committed):
    for name, rec in [("committed", committed), ("fresh", fresh)]:
        print(
            f"{name:>9}: scale={rec['scale']} hit_rate={rec['hit_rate']:.4f} "
            f"speedup={rec['speedup']:.2f}x"
        )
    if fresh["hit_rate"] < 0.90:
        raise SystemExit("optimizer cache hit rate regressed below 90%")
    if "allocs_per_plan" in committed:
        print(
            f"allocs_per_plan: committed={committed['allocs_per_plan']:.2f} "
            f"fresh={fresh['allocs_per_plan']:.2f}"
        )
        if fresh["allocs_per_plan"] > committed["allocs_per_plan"]:
            raise SystemExit(
                "warm-cache planning allocates more than the committed record: "
                f"{fresh['allocs_per_plan']:.2f} > {committed['allocs_per_plan']:.2f} "
                "allocations per plan"
            )


def gate_serve_net(fresh, committed):
    for name, rec in [("committed", committed), ("fresh", fresh)]:
        print(
            f"{name:>9}: scale={rec['scale']} cores={rec['cores']} "
            f"qps={rec['qps']:.0f} p50={rec['p50_micros']}us "
            f"p99={rec['p99_micros']}us"
        )
    if fresh["proto_anomalies"] != 0:
        raise SystemExit("serve-net record shows protocol anomalies")
    if fresh["estimate_errors"] != 0:
        raise SystemExit("serve-net record shows refused requests")
    if not fresh["conserved"]:
        raise SystemExit("serve-net record shows a conservation violation")
    if fresh["routed_total"] != fresh["requests"]:
        raise SystemExit("serve-net record shows lost or duplicated requests")
    if fresh["qps"] < 0.10 * committed["qps"]:
        raise SystemExit(
            f"serve-net throughput collapsed: fresh {fresh['qps']:.0f} qps "
            f"vs committed {committed['qps']:.0f} qps (floor is 10%)"
        )


def gate_generic(fresh, committed):
    # The binary already gated its invariants; here we only prove both
    # records parse and surface them for the log.
    for name, rec in [("committed", committed), ("fresh", fresh)]:
        summary = {
            k: v
            for k, v in rec.items()
            if isinstance(v, (int, float, str, bool)) and k != "environment"
        }
        print(f"{name:>9}: {summary}")


GATES = {
    "bench_optimizer": gate_optimizer,
    "bench_serve_net": gate_serve_net,
}


def main():
    if len(sys.argv) != 3:
        raise SystemExit(f"usage: {sys.argv[0]} <bin> <record>")
    bin_name, record = sys.argv[1], sys.argv[2]
    fresh = load_fresh(record)
    committed = load_committed(record)
    GATES.get(bin_name, gate_generic)(fresh, committed)
    print(f"{record}: OK")


if __name__ == "__main__":
    main()
