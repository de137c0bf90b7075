"""Tests of the benchmark itself: its independent references agree with the
package on tiny cases, its checks reject wrong outputs, its work counts are
what README.md states, and traced counts are exact.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import family  # noqa: E402
import pacasim  # noqa: E402
import workloads  # noqa: E402
from swprg import bp, generators, hsg, lab, paca  # noqa: E402


def test_family_model_matches_package_programs():
    n, t, k = 5, 2, 7
    inputs = np.arange(1 << n, dtype=np.uint64)
    v = family.visited(inputs, n, t, k)
    for mask, program in enumerate(lab.enumerate_swbp_family(n, t, k)):
        trans, acc = family.canonical_tables(n, t, mask, k)
        assert (program.trans, program.acc) == (trans, acc)
        for x in range(1 << n):
            assert bp.evaluate_int(program, x) == (int(v[x]) & mask == 0)


def test_fooling_reference_matches_lab():
    nisan = generators.with_measured_error(
        generators.base_nisan(4, 4, Fraction(1, 4)), Fraction(1, 8)
    )
    half = generators.rect_compose(nisan, generators.ExhaustiveRectangle(1, nisan.d))
    g = generators.interleave(half, half)
    low = [half.expand_int(s) for s in range(1 << half.d)]
    outputs = family.interleave_outputs(low, low, half.blocks, half.block_bits)
    assert np.array_equal(outputs, g.expand_all())
    n, t, k = 8, 2, 6
    errors = family.fooling_errors(outputs, g.d, n, t, k)
    programs = list(lab.enumerate_swbp_family(n, t, k))
    assert errors == [lab.fooling_error(g, p) for p in programs]


def test_required_witnesses_match_hitting_report():
    n, t, k = 4, 2, 6
    h = hsg.build_swbp_hsg(n, 2, 4, hsg.hsg_exhaustive(2))
    report = lab.run_hitting_report(h, list(lab.enumerate_swbp_family(n, t, k)))
    assert report.required == len(family.nonzero_programs(n, t, k))


def test_paca_simulator_matches_package():
    rng = random.Random(7)
    exhaustive = lambda m, thr: generators.base_exhaustive(m)  # noqa: E731
    for _ in range(12):
        spec = paca.paca_to_json(paca.sample_paca(rng, rng.randint(2, 3), rng.randint(2, 4)))
        x = pacasim.random_rejected_input(rng, spec, rng.randint(1, 3))
        c = paca.paca_from_json(spec)
        p = pacasim.accept_probability(spec, x)
        assert p == paca.exact_accept_probability(c, x)
        assert p == paca.accept_probability_bruteforce(c, x)
        terms = pacasim.step_terms(spec, x)
        assert terms == paca.derandomize_two_sided(c, x, Fraction(1, 8), exhaustive).eta_terms
        assert pacasim.inclusion_exclusion(terms) == p


def test_paca_check_rejects_wrong_outputs(tmp_path):
    check = workloads._paca_check("derand2", Fraction(1, 4))
    report = tmp_path / "paca.json"
    report.write_text(json.dumps({"mode": "derand2", "accept": False, "eta": "1/4"}))
    assert check(1, tmp_path) == []
    assert check(0, tmp_path) != []
    report.write_text(json.dumps({"mode": "derand2", "accept": False, "eta": "1/3"}))
    assert check(1, tmp_path) != []
    assert workloads._paca_check("exact", Fraction(1, 4))(0, tmp_path / "missing") != []


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    return {name: workloads.build(name, 3, tmp_path_factory.mktemp(name))
            for name in workloads.WORKLOADS}


def _run(job) -> int:
    """Run a job as run.py does and return its exit code."""
    if job.target == "swprg.cli":
        argv = [sys.executable, "-m", "swprg.cli", *job.argv]
    else:
        argv = [sys.executable, str(BENCH / f"{job.target}.py"), *job.argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=120).returncode


def _edit_json(path: Path, **changes) -> None:
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


def _first_row_off(out: Path) -> None:
    csv = out / "fooling.csv"
    header, first, *rest = csv.read_text().split()
    i, error = first.split(",")
    csv.write_text("\n".join([header, f"{i},{Fraction(error) + Fraction(1, 1 << 20)}", *rest]))


def _term_off(out: Path) -> None:
    report = json.loads((out / "paca-gen.json").read_text())
    key = next(iter(report["eta_terms"]))
    report["eta_terms"][key] = str(Fraction(report["eta_terms"][key]) + Fraction(1, 1 << 16))
    (out / "paca-gen.json").write_text(json.dumps(report))


TAMPERINGS = {
    ("fool-family", "verify-fool"): [
        _first_row_off,
        lambda out: _edit_json(out / "fooling.json", worst_error="1/32"),
        lambda out: _edit_json(out / "fooling.json", eps_budget="1/4"),
        lambda out: _edit_json(out / "fooling.json", programs_checked=31),
        lambda out: (out / "fooling.csv").unlink(),
    ],
    ("hit-family", "verify-hit"): [
        lambda out: _edit_json(out / "hitting.json", missed_program_indices=[5]),
        lambda out: _edit_json(out / "hitting.json", witness_required=5597),
        lambda out: _edit_json(out / "hitting.json", programs_checked=8191),
    ],
    ("paca-derand", "derand2 generator"): [
        _term_off,
        lambda out: _edit_json(out / "paca-gen.json", eta="1/2"),
        lambda out: _edit_json(
            out / "paca-gen.json",
            accept=not json.loads((out / "paca-gen.json").read_text())["accept"]),
    ],
}


@pytest.mark.parametrize("name, label", list(TAMPERINGS))
def test_checks_pass_real_outputs_and_reject_tampered_ones(plans, tmp_path, name, label):
    job = next(j for j in plans[name].jobs if j.label == label)
    code = _run(job)
    assert job.check(code, job.out) == []
    for i, tamper in enumerate(TAMPERINGS[name, label]):
        copy = tmp_path / str(i)
        shutil.copytree(job.out, copy)
        tamper(copy)
        assert job.check(code, copy) != [], f"tampering {i} of {label} went unnoticed"


@pytest.mark.parametrize(
    "name, jobs, work",
    [("fool-family", 1, 32 << 20), ("hit-family", 1, 8192), ("paca-derand", 9, 1 << 16)],
)
def test_work_per_round(plans, name, jobs, work):
    plan = plans[name]
    assert (len(plan.jobs), plan.work) == (jobs, work)


def test_traced_counts_are_exact(tmp_path):
    spec = paca.paca_to_json(paca.sample_paca(random.Random(1), 2, 2))
    x = pacasim.random_rejected_input(random.Random(2), spec, 2)
    (tmp_path / "paca.json").write_text(json.dumps(spec))
    rect = generators.PairwiseRectangle(4, 2)
    g = generators.rect_compose(generators.base_exhaustive(2), rect)
    (tmp_path / "gen.json").write_text(json.dumps(g.to_json()))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(BENCH / "tracing.py"), str(spans), "gen_job",
         "--generator", str(tmp_path / "gen.json"), "--paca", str(tmp_path / "paca.json"),
         "--input", ",".join(map(str, x)), "--eps", "1/8", "--out", str(tmp_path / "out")],
        env=env, check=True, timeout=120,
    )
    stats = json.loads(spans.read_text())["stats"]
    assert stats["generators.expand_all"]["units"] == 1 << g.d
    assert stats["primitives.hash_eval"]["calls"] == rect.blocks << g.d
    assert stats["paca.accepting_steps_of_stream"]["calls"] == 1 << g.d
