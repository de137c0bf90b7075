"""Benchmark of the swprg CLI: runs one workload for a fixed time, checks
every job's output, and prints its metrics as the last line of stdout.

    python3 perfbench/run.py --workload fool-family --seed 1 --seconds 30 --trace 0

Jobs run one at a time (closed loop), each in a fresh interpreter with
``--jobs 1``, in whole rounds of the workload's job list: at least one, and
more while the next should end within ``--seconds``.  Before the rounds, a
few fresh interpreters time the set-up alone (``setup_probe.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
plain and traced rounds (``tracing.py``) and prints the per-layer metrics
and the tracing overhead.  Spans and a per-job record are written under
``.perfbench_out/`` in the checkout.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
JOB_TIMEOUT = 120.0
RUN_LIMIT = 170.0  # no job may still be running this long after the start
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())  # names and units
WORKLOADS = [w["name"] for w in METRICS["workloads"]]


def _job_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that starts every job (see launcher.py)."""

    def __init__(self, env: Dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: List[str], log: Path, timeout: float) -> dict:
        request = {"argv": argv, "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"job launcher ended with exit {self.proc.wait()}")
        return json.loads(answer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=JOB_TIMEOUT)
        self.proc.stdout.close()


def run_job(job, launcher: Launcher, log: Path, timeout: float, spans: Optional[Path] = None) -> dict:
    """Run one job to its end and check its output."""
    shutil.rmtree(job.out, ignore_errors=True)
    if spans is not None:
        argv = [sys.executable, str(BENCH / "tracing.py"), str(spans), job.target, *job.argv]
    elif job.target == "swprg.cli":
        argv = [sys.executable, "-m", "swprg.cli", *job.argv]
    else:
        argv = [sys.executable, str(BENCH / f"{job.target}.py"), *job.argv]
    result = launcher.run(argv, log, timeout)
    try:
        problems = job.check(result["exit"], job.out)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    for problem in problems:
        print(f"FAILED {job.label}: {problem}", file=sys.stderr)
    result.update(label=job.label, traced=spans is not None, problems=problems,
                  spans=str(spans) if spans is not None else None)
    return result


def setup_times(args: List[str], env, log: Path) -> List[float]:
    """Set-up time of fresh interpreters; the first, which may still be
    writing bytecode caches, is left out."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        with open(log, "ab") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "setup_probe.py"), *args],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
            )
            stdout, _ = proc.communicate(timeout=JOB_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        times.append(float(stdout.split()[-1]) - start)
    return times[1:]


def _rounds_of(records: List[dict], per_round: int) -> List[List[dict]]:
    return [records[i : i + per_round] for i in range(0, len(records), per_round)]


def end_to_end(rounds: List[List[dict]], work: int, setup: List[float]) -> Dict[str, float]:
    """job_s is the median over rounds of the round's mean job time, which
    for one-job rounds is the median job time."""
    round_wall = [sum(r["wall_s"] for r in rnd) for rnd in rounds]
    return {
        "job_s": statistics.median(w / len(rnd) for w, rnd in zip(round_wall, rounds)),
        "work_per_s": work / statistics.median(round_wall),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in rnd) for rnd in rounds),
    }


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_values(traced_round: List[dict]) -> Dict[str, float]:
    """Per-layer figures of one traced round, summed over its jobs."""
    tot: Dict[str, Dict[str, float]] = {}
    self_s = 0.0
    for record in traced_round:
        with open(record["spans"]) as fh:
            data = json.load(fh)
        self_s += record["wall_s"] - data["covered_s"]
        for name, st in data["stats"].items():
            acc = tot.setdefault(name, {"calls": 0, "seconds": 0.0, "units": 0, "unit_seconds": 0.0})
            for key in acc:
                acc[key] += st[key]

    def get(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0)

    expand_s, seeds = get("generators.expand_all", "seconds"), get("generators.expand_all", "units")
    batch_s, seed_layers = get("lab.batch_evaluate", "seconds"), get("lab.batch_evaluate", "units")
    dp_s, dp_calls = get("bp.acceptance_probability", "seconds"), get("bp.acceptance_probability", "calls")
    sweep_s = get("paca.accepting_steps_of_stream", "seconds")
    streams = get("paca.accepting_steps_of_stream", "calls")
    return {
        "generators.expand_s": expand_s,
        "generators.seeds_expanded": seeds,
        "generators.ns_per_seed": _ratio(get("generators.expand_all", "unit_seconds"), seeds, 1e9),
        "primitives.hash_evals": get("primitives.hash_eval", "calls"),
        "primitives.hash_eval_s": get("primitives.hash_eval", "seconds"),
        "lab.batch_evaluate_s": batch_s,
        "lab.seed_layer_evals": seed_layers,
        "lab.ns_per_seed_layer": _ratio(batch_s, seed_layers, 1e9),
        "lab.enumerate_s": get("lab.enumerate_swbp_family", "seconds"),
        "lab.programs": get("lab.enumerate_swbp_family", "units"),
        "bp.dp_s": dp_s,
        "bp.dp_calls": dp_calls,
        "bp.us_per_dp": _ratio(dp_s, dp_calls, 1e6),
        "paca.sweep_s": sweep_s,
        "paca.streams_swept": streams,
        "paca.us_per_stream": _ratio(sweep_s, streams, 1e6),
        "paca.markov_s": get("paca.exact_accept_probability", "seconds")
        + get("paca.step_vector_distribution", "seconds"),
        "paca.step_calls": get("paca.step", "calls"),
        "cli.self_s": self_s,
    }


def per_layer(rounds: List[List[dict]]) -> Dict[str, float]:
    plain = [rnd for rnd in rounds if not rnd[0]["traced"]]
    traced = [rnd for rnd in rounds if rnd[0]["traced"]]
    per_round = [layer_values(rnd) for rnd in traced]
    values = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    plain_s = statistics.median(sum(r["wall_s"] for r in rnd) / len(rnd) for rnd in plain)
    traced_s = statistics.median(sum(r["wall_s"] for r in rnd) / len(rnd) for rnd in traced)
    values["trace.job_s"] = traced_s
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="swprg CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "swprg" / "cli.py").is_file():
        print(f"no swprg sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    run_dir = OUT / args.workload / f"seed-{args.seed}-trace-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "spans").mkdir(parents=True)
    log = run_dir / "stderr.log"
    env = _job_env()
    with Launcher(env) as launcher:
        import workloads  # numpy and the references: after the launcher started

        plan = workloads.build(args.workload, args.seed, run_dir)
        setup = setup_times(plan.setup_args, env, log)

        # Whole rounds only; a round starts if it should end before the deadline.
        deadline = time.monotonic() + args.seconds
        records: List[dict] = []
        passes = (False, True) if args.trace else (False,)  # traced or not
        n_rounds = 0
        last = 0.0
        while n_rounds == 0 or time.monotonic() + last <= deadline:
            begin = time.monotonic()
            for traced in passes:
                for j, job in enumerate(plan.jobs):
                    spans = run_dir / "spans" / f"round-{n_rounds}-job-{j}.json" if traced else None
                    timeout = min(JOB_TIMEOUT, started + RUN_LIMIT - time.monotonic())
                    records.append(run_job(job, launcher, log, timeout, spans))
                n_rounds += 1
            last = time.monotonic() - begin

    rounds = _rounds_of(records, len(plan.jobs))
    failed = sum(1 for r in records if r["problems"])
    values = per_layer(rounds) if args.trace else end_to_end(rounds, plan.work, setup)
    listed = METRICS["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    detail = {"workload": args.workload, "seed": args.seed, "work_per_round": plan.work,
              "setup_s": setup, "jobs": records, "metrics": metrics}
    (run_dir / "run.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
