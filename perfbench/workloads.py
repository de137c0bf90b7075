"""The benchmark's workloads: the jobs of one round, their inputs, their
unit of work and the independent check of each job's output.

A job is one fresh-interpreter command, as a user would run it.  A round
is the workload's fixed list of jobs, run one after another; a run repeats
whole rounds.  ``build(name, seed, run_dir)`` writes the round's inputs
under ``run_dir`` and computes the references the checks compare against.
The two family workloads are fixed enumerations; only ``paca-derand``
draws its inputs from the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import family
import pacasim

CONFIGS = Path(__file__).resolve().parent / "configs"

# problems found in a job's output, given (exit code, output directory)
Check = Callable[[int, Path], List[str]]


@dataclass
class Job:
    label: str
    target: str  # "swprg.cli" or "gen_job": a module with main(argv)
    argv: List[str]
    out: Path
    check: Check


@dataclass
class Plan:
    jobs: List[Job]
    work: int  # nominal work units of one round
    setup_args: List[str]  # arguments of setup_probe.py


def _read_json(path: Path) -> Optional[dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _cli_job(label: str, command: str, config: Path, out: Path, check: Check) -> Job:
    argv = [command, "--config", str(config), "--jobs", "1", "--out", str(out)]
    return Job(label, "swprg.cli", argv, out, check)


# --- fool-family -------------------------------------------------------------------

# Budget of interleave(rect_compose(nisan with measured eps 1/8, 2 exhaustive
# blocks)): the rectangle composition pays 2 * 1/8 + 0, interleaving doubles it.
FOOL_BUDGET = Fraction(1, 2)


def fool_family(seed: int, run_dir: Path) -> Plan:
    from swprg.generators import generator_from_json

    config_path = CONFIGS / "fool-family.json"
    config = _read_json(config_path)
    spec = config["generator"]
    fam = config["family"]
    g = generator_from_json(spec)
    halves = [generator_from_json(spec[k]) for k in ("g1", "g2")]
    low, high = ([h.expand_int(s) for s in range(1 << h.d)] for h in halves)
    outputs = family.interleave_outputs(low, high, halves[0].blocks, halves[0].block_bits)
    problems = [
        f"expand_int({s}) = {g.expand_int(s)}, interleaved halves give {int(outputs[s])}"
        for s in random.Random(seed).sample(range(1 << g.d), 64)
        if g.expand_int(s) != int(outputs[s])
    ]
    errors = family.fooling_errors(outputs, g.d, fam["n"], fam["t"], fam["budget_bits"])

    def check(code: int, out: Path) -> List[str]:
        found = list(problems)
        report = _read_json(out / "fooling.json")
        try:
            rows = (out / "fooling.csv").read_text().split()[1:]
        except OSError:
            rows = None
        if report is None or rows is None:
            return found + [f"exit {code}, report or csv missing"]
        if code != 0:
            found.append(f"exit {code}")
        got = {int(i): Fraction(e) for i, e in (row.split(",") for row in rows)}
        if got != dict(enumerate(errors)):
            bad = [i for i in range(len(errors)) if got.get(i) != errors[i]]
            found.append(f"per-program errors differ from the reference at {bad[:8]}")
        if Fraction(report["worst_error"]) != max(errors):
            found.append(f"worst error {report['worst_error']} != reference {max(errors)}")
        if max(errors) > FOOL_BUDGET:
            found.append(f"worst error {max(errors)} over the budget {FOOL_BUDGET}")
        if not report["passed"]:
            found.append("report fails a generator within its budget")
        if Fraction(report["eps_budget"]) != FOOL_BUDGET:
            found.append(f"budget {report['eps_budget']} != {FOOL_BUDGET}")
        if report["programs_checked"] != len(errors) or report["seeds_enumerated"] != 1 << g.d:
            found.append("programs or seeds counted wrongly")
        return found

    out = run_dir / "verify-fool"
    job = _cli_job("verify-fool", "verify-fool", config_path, out, check)
    return Plan([job], len(errors) << g.d, ["fool-family", str(config_path)])


# --- hit-family --------------------------------------------------------------------

WITNESS_SAMPLE = 16


def hit_family(seed: int, run_dir: Path) -> Plan:
    from swprg import bp
    from swprg.hsg import hsg_from_json

    config_path = CONFIGS / "hit-family.json"
    config = _read_json(config_path)
    n, t, k = (config["family"][key] for key in ("n", "t", "budget_bits"))
    h = hsg_from_json(config["hsg"])
    required = family.nonzero_programs(n, t, k)
    problems = []
    if h.eps_budget != 0:
        problems.append(f"threshold {h.eps_budget} != 0")
    for mask in random.Random(seed).sample([int(m) for m in required], WITNESS_SAMPLE):
        trans, acc = family.canonical_tables(n, t, mask, k)
        program = bp.LayeredProgram(n, 1 << t, 0, trans, acc)
        witness = next(
            (s for s in range(1 << h.d) if bp.evaluate_int(program, h.expand_int(s))), None
        )
        if witness is None:
            problems.append(f"no seed hits program {mask}")
        elif family.visited([h.expand_int(witness)], n, t, k)[0] & mask:
            problems.append(f"seed {witness} accepted by evaluate_int but not by the model")

    def check(code: int, out: Path) -> List[str]:
        found = list(problems)
        report = _read_json(out / "hitting.json")
        if report is None:
            return found + [f"exit {code}, report missing"]
        if code != 0:
            found.append(f"exit {code}")
        if report["missed_program_indices"] or not report["passed"]:
            found.append(f"misses: {report['missed_program_indices'][:8]}")
        if report["witness_required"] != len(required):
            found.append(f"witness_required {report['witness_required']} != {len(required)}")
        if report["programs_checked"] != 1 << k:
            found.append(f"programs_checked {report['programs_checked']} != {1 << k}")
        return found

    out = run_dir / "verify-hit"
    job = _cli_job("verify-hit", "verify-hit", config_path, out, check)
    return Plan([job], 1 << k, ["hit-family", str(config_path)])


# --- paca-derand -------------------------------------------------------------------

FIXTURES = {"c1": Fraction(1, 4), "c2": Fraction(175, 256)}
FIXTURE_LENGTH = 10
RANDOM_PACAS = 2
RANDOM_SHAPE = (3, 4, 4)  # states, time bound, input length: (T - 1) * n coin bits
EPS = "1/8"


def _paca_check(mode: str, probability: Fraction) -> Check:
    """Check a ``swprg paca`` report against the true acceptance probability."""

    def check(code: int, out: Path) -> List[str]:
        report = _read_json(out / "paca.json")
        if report is None:
            return [f"exit {code}, report missing"]
        if mode == "exact":
            got = Fraction(report["probability"])
            want_code = 0
        else:
            got = Fraction(report["eta"])
            accept = probability > Fraction(1, 2)
            if report["accept"] != accept:
                return [f"decision {report['accept']} for probability {probability}"]
            want_code = 0 if accept else 1
        found = [] if got == probability else [f"{mode} gives {got}, true value {probability}"]
        if code != want_code:
            found.append(f"exit {code}, expected {want_code}")
        return found

    return check


def _gen_check(spec: dict, x: List[int], g) -> Check:
    """The terms must be the seed frequencies of generator ``g``'s streams,
    swept by the independent simulator over ``expand_int`` outputs, and eta
    their inclusion-exclusion sum.  Criterion 7's rule, |eta - exact| <=
    (2**T - 1) * eps_G with eps_G the largest per-term deviation from the
    exact terms, follows from those two by the triangle inequality; it is
    checked as the statement the report must satisfy, not as a further test."""
    T = spec["time_bound"]
    exact_terms = pacasim.step_terms(spec, x)
    exact = pacasim.inclusion_exclusion(exact_terms)
    streams = np.fromiter((g.expand_int(s) for s in range(1 << g.d)), np.uint64, 1 << g.d)
    seed_terms = pacasim.terms_of(
        pacasim.run_coins(spec, x, pacasim.stream_coins(streams, T, len(x))), T
    )

    def check(code: int, out: Path) -> List[str]:
        report = _read_json(out / "paca-gen.json")
        if code != 0 or report is None:
            return [f"exit {code}, report missing"]
        terms = pacasim.parse_terms(report["eta_terms"])
        eta = Fraction(report["eta"])
        if terms != seed_terms:
            return ["terms differ from the seed frequencies of the generator's streams"]
        found = []
        if eta != pacasim.inclusion_exclusion(terms):
            found.append("eta is not the inclusion-exclusion sum of its terms")
        eps_g = max(abs(terms[s] - exact_terms[s]) for s in terms)
        if abs(eta - exact) > ((1 << T) - 1) * eps_g:
            found.append(f"|eta - exact| = {abs(eta - exact)} > (2^T - 1) * {eps_g}")
        if report["accept"] != (eta > Fraction(1, 2)):
            found.append(f"decision {report['accept']} for eta {eta}")
        return found

    return check


def paca_derand(seed: int, run_dir: Path) -> Plan:
    from swprg import paca
    from swprg.generators import generator_from_json

    rng = random.Random(seed)
    jobs: List[Job] = []
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)

    def paca_job(label: str, config: Dict, check: Check) -> None:
        path = inputs / f"{label.replace(' ', '-')}.json"
        path.write_text(json.dumps(config) + "\n")
        jobs.append(_cli_job(label, "paca", path, run_dir / label.replace(" ", "-"), check))

    for name, probability in FIXTURES.items():
        x = pacasim.fixture_input(rng, FIXTURE_LENGTH)
        for mode in ("derand2", "exact"):
            config = {"paca": name, "mode": mode, "input": x, "eps": EPS}
            paca_job(f"{mode} {name}", config, _paca_check(mode, probability))

    q, T, n = RANDOM_SHAPE
    paca_files = []

    def random_instance(name: str):
        spec = paca.paca_to_json(paca.sample_paca(rng, q, T))
        x = pacasim.random_rejected_input(rng, spec, n)
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(spec) + "\n")
        paca_files.append(str(path))
        return spec, x, path

    for i in range(RANDOM_PACAS):
        spec, x, path = random_instance(f"random-{i}")
        probability = pacasim.accept_probability(spec, x)
        for mode in ("exact", "derand2"):
            config = {"paca": str(path), "mode": mode, "input": x, "eps": EPS}
            paca_job(f"{mode} random-{i}", config, _paca_check(mode, probability))

    spec, x, path = random_instance("generator-paca")
    generator_path = CONFIGS / "paca-gen.json"
    g = generator_from_json(_read_json(generator_path))
    out = run_dir / "derand2-generator"
    argv = [
        "--generator", str(generator_path), "--paca", str(path),
        "--input", ",".join(map(str, x)), "--eps", EPS, "--out", str(out),
    ]
    jobs.append(Job("derand2 generator", "gen_job", argv, out, _gen_check(spec, x, g)))
    return Plan(jobs, 1 << g.d, ["paca-derand", str(generator_path)] + paca_files)


WORKLOADS = {
    "fool-family": fool_family,
    "hit-family": hit_family,
    "paca-derand": paca_derand,
}


def build(name: str, seed: int, run_dir: Path) -> Plan:
    return WORKLOADS[name](seed, run_dir)
