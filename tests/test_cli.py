import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from swprg import bp, generators, hsg
from swprg.cli import EXIT_CAP, EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main
from swprg.paca import Paca, build_c1, paca_to_json


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(tmp_path, command, config, extra=()):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


def test_gen_command(tmp_path):
    g = generators.base_exhaustive(3)
    code, out = run(tmp_path, "gen", {"generator": g.to_json(), "dump": True})
    assert code == EXIT_PASS
    payload = json.loads((out / "generator.json").read_text())
    assert payload["seed_bits"] == 3
    assert payload["expansion"] == list(range(8))
    assert "config_hash" in payload
    assert "timestamp" in payload["metadata"]


def test_gen_cap_refusal(tmp_path):
    g = generators.base_exhaustive(12)
    code, _ = run(
        tmp_path, "gen", {"generator": g.to_json(), "dump": True},
        extra=["--cap-seeds", "8"],
    )
    assert code == EXIT_CAP


def test_verify_fool_family_budget_over_cap(tmp_path):
    config = {
        "generator": generators.base_exhaustive(4).to_json(),
        "family": {"n": 16, "t": 2, "budget_bits": 40},
    }
    code, _ = run(tmp_path, "verify-fool", config)
    assert code == EXIT_CAP


@pytest.mark.parametrize("budget_bits", [20, -1])
def test_verify_fool_family_budget_out_of_range(tmp_path, budget_bits):
    # n = 4, t = 2 has 14 labeling positions
    config = {
        "generator": generators.base_exhaustive(4).to_json(),
        "family": {"n": 4, "t": 2, "budget_bits": budget_bits},
    }
    code, out = run(tmp_path, "verify-fool", config)
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, wrap",
    [("verify-fool", "generator", lambda g: g), ("verify-hit", "hsg", hsg.from_prg)],
    ids=["verify-fool", "verify-hit"],
)
def test_verify_refuses_interleave_over_cap_or_packing(tmp_path, capsys, command, key, wrap):
    cases = [
        # each 5-bit half fits the 8-bit cap; the 10-bit product does not
        (generators.interleave(generators.base_exhaustive(5), generators.base_exhaustive(5)),
         4, ["--cap-seeds", "8"], "seed enumeration needs 2**10 expansions (cap 8 bits)"),
        (generators.interleave(generators.PairwiseRectangle(16, 2),
                               generators.PairwiseRectangle(16, 2)),
         2, [], "flat output of 64 bits does not pack into uint64"),
    ]
    for g, bits, extra, message in cases:
        config = {key: wrap(g).to_json(),
                  "family": {"n": g.flat_bits, "t": bits, "budget_bits": 2}}
        code, out = run(tmp_path, command, config, extra=extra)
        assert code == EXIT_CAP
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_verify_fool_exhaustive_passes(tmp_path):
    g = generators.base_exhaustive(4)
    config = {
        "generator": g.to_json(),
        "family": {"n": 4, "t": 2, "budget_bits": 6},
        "eps_budget": "0",
    }
    code, out = run(tmp_path, "verify-fool", config, extra=["--jobs", "2"])
    assert code == EXIT_PASS
    payload = json.loads((out / "fooling.json").read_text())
    assert payload["worst_error"] == "0"
    assert (out / "fooling.csv").exists()
    work = {key: payload["metadata"][key]
            for key in ("seeds_expanded", "distinct_outputs", "seed_layer_evals",
                        "programs_counted")}
    # a base generator expands each of its 2**d seeds
    assert work == {"seeds_expanded": 1 << g.d, "distinct_outputs": 16,
                    "seed_layer_evals": 16 * 4, "programs_counted": 64}


def test_verify_fool_budget_violation(tmp_path):
    g = generators.base_nisan(4, 2, Fraction(1, 4))
    config = {
        "generator": g.to_json(),
        "family": {"n": 4, "t": 2, "budget_bits": 8},
        "eps_budget": "0",
    }
    code, _ = run(tmp_path, "verify-fool", config)
    assert code == EXIT_FAIL


@pytest.mark.parametrize(
    "command, key, spec, report",
    [
        ("verify-fool", "generator",
         generators.interleave(generators.base_exhaustive(2), generators.base_exhaustive(2)),
         "fooling.json"),
        ("verify-hit", "hsg",
         hsg.hsg_interleave(hsg.hsg_exhaustive(2), hsg.hsg_exhaustive(2)),
         "hitting.json"),
    ],
    ids=["verify-fool", "verify-hit"],
)
def test_interleave_window_precondition(tmp_path, command, key, spec, report):
    # block_bits is 2: programs of window 3 or 4 are outside the budget's class
    for t in (3, 4):
        config = {key: spec.to_json(), "family": {"n": 4, "t": t, "budget_bits": 4}}
        code, out = run(tmp_path, command, config)
        assert code == EXIT_CONFIG
        assert not out.exists()
    config["family"]["t"] = 2
    code, out = run(tmp_path, command, config)
    assert code == EXIT_PASS
    assert json.loads((out / report).read_text())["passed"] is True


def test_verify_hit(tmp_path):
    h = hsg.build_swbp_hsg(8, 2, 4, hsg.hsg_exhaustive(2))
    config = {"hsg": h.to_json(), "family": {"n": 8, "t": 2, "budget_bits": 5}}
    code, out = run(tmp_path, "verify-hit", config)
    assert code == EXIT_PASS
    payload = json.loads((out / "hitting.json").read_text())
    assert payload["passed"]
    work = {key: payload["metadata"][key]
            for key in ("seeds_expanded", "distinct_outputs", "seed_layer_evals",
                        "programs_counted")}
    # an interleave expands each half on its own seeds, 2**4 + 2**4 of them
    halves = h.carrier
    assert work == {"seeds_expanded": (1 << halves.g1.d) + (1 << halves.g2.d),
                    "distinct_outputs": 1 << h.d, "seed_layer_evals": 8 << h.d,
                    "programs_counted": 32}


def test_window_check_certificate_and_violation(tmp_path):
    p, _ = bp.canonical_debruijn_swbp(6, 2)
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(json.dumps(bp.program_to_json(p)))
    code, out = run(tmp_path, "window-check", {"program": str(prog_path), "t": 2})
    assert code == EXIT_PASS
    assert json.loads((out / "window.json").read_text())["result"] == "certificate"

    tables = [list(map(list, layer)) for layer in p.trans]
    tables[3][0][0] = 3
    bad = bp.LayeredProgram(
        p.n, p.w, p.q0,
        tuple(tuple(tuple(e) for e in layer) for layer in tables), p.acc,
    )
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bp.program_to_json(bad)))
    code, out = run(tmp_path, "window-check", {"program": str(bad_path), "t": 2})
    assert code == EXIT_FAIL


def test_paca_exact_c1(tmp_path):
    code, out = run(tmp_path, "paca", {"mode": "exact", "paca": "c1", "input": [0, 1]})
    assert code == EXIT_PASS
    payload = json.loads((out / "paca.json").read_text())
    assert payload["probability"] == "1/4"


def test_paca_exact_from_file(tmp_path):
    c = build_c1()
    paca_path = tmp_path / "paca.json"
    paca_path.write_text(json.dumps(paca_to_json(c)))
    code, out = run(
        tmp_path, "paca", {"mode": "exact", "paca": str(paca_path), "input": [0]}
    )
    assert code == EXIT_PASS


def test_paca_sim_deterministic(tmp_path):
    config = {"mode": "sim", "paca": "c1", "input": [0, 0], "matrix_seed": 7}
    code1, out1 = run(tmp_path, "paca", config)
    payload1 = json.loads((out1 / "paca.json").read_text())
    code2, out2 = run(tmp_path, "paca", config)
    payload2 = json.loads((out2 / "paca.json").read_text())
    assert payload1["accept"] == payload2["accept"]
    assert payload1["diagram"] == payload2["diagram"]
    assert payload1["config_hash"] == payload2["config_hash"]


@pytest.mark.parametrize("name, x", [("c1", [0]), ("c2", [1, 0])])
def test_paca_derand1_fixtures_accept(tmp_path, name, x):
    config = {"paca": name, "mode": "derand1", "input": x, "eps": "1/8"}
    code, out = run(tmp_path, "paca", config)
    assert code == EXIT_PASS
    assert json.loads((out / "paca.json").read_text())["accept"] is True


def test_paca_derand1_rejects_probability_zero(tmp_path):
    never = np.zeros((3, 2, 3), dtype=np.int16)  # every cell moves to state 0
    c = Paca(2, (0,), frozenset({1}), never, never.copy(), 3)
    paca_path = tmp_path / "never.json"
    paca_path.write_text(json.dumps(paca_to_json(c)))
    config = {"paca": str(paca_path), "mode": "derand1", "input": [0], "eps": "1/8"}
    code, out = run(tmp_path, "paca", config)
    assert code == EXIT_FAIL
    assert json.loads((out / "paca.json").read_text())["accept"] is False


def test_readme_config_examples_run(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert examples
    for i, config in enumerate(examples):
        if "paca" in config:
            command = "paca"
        elif "hsg" in config:
            command = "verify-hit"
        elif "family" in config:
            command = "verify-fool"
        else:
            command = "gen"
        code = main([command, "--config", write_config(tmp_path, config, f"ex{i}.json"),
                      "--out", str(tmp_path / f"out{i}")])
        assert code in (EXIT_PASS, EXIT_FAIL), (config, code)


def test_bad_config_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["gen", "--config", missing]) == EXIT_CONFIG
    cfg = write_config(tmp_path, {"wrong": 1})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("command, config", [
    ("verify-fool", {
        "generator": {"kind": "exhaustive", "t": 4},
        "family": {"n": 4, "t": 2, "budget_bits": 2},
        "eps_budget": "abc",
    }),
    ("paca", {"paca": "c1", "mode": "derand2", "input": [0], "eps": "1/0"}),
    ("gen", {"generator": {"kind": "exhaustive", "t": "8"}}),
])
def test_malformed_config_value_exit_code(tmp_path, command, config):
    code, out = run(tmp_path, command, config)
    assert code == EXIT_CONFIG
    assert not out.exists()
