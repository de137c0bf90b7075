"""Steadiness check: two sets of runs of the same code, compared against
the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json ten times at its
``run_seconds``, each run with its own seed (set k uses seeds 1000*k + 1
...).  For each set, workload and end-to-end metric it reports the median
and the spread, (q3 - q1) / median with ``statistics.quantiles(values,
n=4)``.  The spread must stay within the metric's bound, except for
``setup_s``: its spread is only reported, since set-up is a fraction of a
second of interpreter start and imports whose run-to-run scatter says
little; its median is bounded like the others.  Between the sets, the
medians may not differ by more than the bound in either direction, and
the share of failed operations must be the same.  It also reports the
job-to-job spread of wall and CPU time per job kind.  The summary goes to
stdout and to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = ROOT / ".perfbench_out" / workload / f"seed-{seed}-trace-0" / "run.json"
    result["jobs"] = json.loads(detail_path.read_text())["jobs"]
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for k in range(SETS):
        results = {}
        for workload in workloads:
            runs = []
            for i in range(RUNS):
                runs.append(run_once(workload, 1000 * k + i + 1, seconds))
                m = runs[-1]["metrics"]
                print(f"set {k} {workload} run {i}: "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in m.items()), flush=True)
            results[workload] = runs
        sets.append(results)

    ok = True
    summary = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    print("\n| workload | metric | bound | set 0 median | set 0 spread | set 1 median "
          "| set 1 spread | shift | verdict |")
    print("|---" * 8 + "|")
    for workload in workloads:
        rows = summary["workloads"][workload] = {}
        shares = {
            (sum(r["failed"] for r in s[workload]), sum(r["attempted"] for r in s[workload]))
            for s in sets
        }
        share_ok = len({f / a for f, a in shares}) == 1
        ok &= share_ok and all(r["correct"] for s in sets for r in s[workload])
        for name, m in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in s[workload]] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]  # > 0: set 1 is worse
            good = abs(shift) <= m["bound"]
            if name != "setup_s":
                good &= all(s <= m["bound"] for s in spreads)
            ok &= good
            rows[name] = {"medians": medians, "spreads": spreads, "shift": shift,
                          "bound": m["bound"], "ok": good}
            cells = " | ".join(f"{med:.4g} | {sp:.3f}" for med, sp in zip(medians, spreads))
            print(f"| {workload} | {name} | {m['bound']} | {cells} | {shift:+.3f} | "
                  f"{'ok' if good else 'OUT OF BOUND'} |")
        rows["failed_share"] = sorted(f"{f}/{a}" for f, a in shares)

    print("\n| workload | job | jobs | wall median s | wall spread | cpu median s | cpu spread |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        jobs = {}
        for s in sets:
            for r in s[workload]:
                for job in r["jobs"]:
                    jobs.setdefault(job["label"], []).append(job)
        for label, recs in jobs.items():
            wall = [j["wall_s"] for j in recs]
            cpu = [j["cpu_s"] for j in recs]
            summary["workloads"][workload].setdefault("jobs", {})[label] = {
                "count": len(recs), "wall_median": statistics.median(wall),
                "wall_spread": spread(wall), "cpu_median": statistics.median(cpu),
                "cpu_spread": spread(cpu),
            }
            print(f"| {workload} | {label} | {len(recs)} | {statistics.median(wall):.3f} | "
                  f"{spread(wall):.3f} | {statistics.median(cpu):.3f} | {spread(cpu):.3f} |")

    summary["ok"] = ok
    out = ROOT / ".perfbench_out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsteady within bounds: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
