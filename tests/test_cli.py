import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import swprg
from swprg import bp, cli, generators, hsg
from swprg.cli import EXIT_CAP, EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, main
from swprg.paca import Paca, build_c1, paca_to_json, sample_paca
from swprg.primitives import cayley_extractor, perfect_extractor


CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def hsg_config(g, kind="prg_as_hsg", threshold=None):
    """An HSG config over the carrier ``g``, written by hand: the wrapper of
    ``kind`` at ``threshold``, by default ``g``'s budget."""
    threshold = g.eps_budget if threshold is None else threshold
    return {"kind": kind, "carrier": g.to_json(), "threshold": str(threshold)}


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


# one fixed config and its config_hash as hashlib.sha256 gives it, which the
# interpreter's built-in SHA-256 must reproduce
PINNED_CONFIG = {"generator": {"kind": "exhaustive", "t": 3}, "note": "fingerprint pin"}
PINNED_HASH = "e5b14e8abc7dab27"


def pinned_config_hash(tmp_path):
    code, out = run(tmp_path, "gen", PINNED_CONFIG)
    assert code == EXIT_PASS
    return json.loads((out / "generator.json").read_text())["config_hash"]


def test_config_hash_is_the_sha256_of_the_sorted_config(tmp_path):
    blob = json.dumps(PINNED_CONFIG, sort_keys=True).encode()
    assert pinned_config_hash(tmp_path) == PINNED_HASH == hashlib.sha256(blob).hexdigest()[:16]


def test_config_hash_falls_back_to_hashlib(tmp_path, monkeypatch):
    calls = []

    def spy(data, real=hashlib.sha256):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(hashlib, "sha256", spy)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    try:
        importlib.reload(cli)
        assert pinned_config_hash(tmp_path) == PINNED_HASH
        assert len(calls) == 1
    finally:
        monkeypatch.undo()
        importlib.reload(cli)


def test_gen_cap_refusal(tmp_path, capsys):
    g = generators.base_exhaustive(25)
    code, out = run(tmp_path, "gen", {"generator": g.to_json(), "dump": True})
    assert code == EXIT_CAP
    assert (
        "refused: exhaustive_rect: seed enumeration needs 2**25 expansions (cap 24 bits)"
        " (required bits: 25)" in capsys.readouterr().err
    )
    assert not out.exists()


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
    [("verify-fool", "generator", lambda g: g.to_json()), ("verify-hit", "hsg", hsg_config)],
    ids=["verify-fool", "verify-hit"],
)
def test_verify_refuses_interleave_over_cap_or_packing(tmp_path, capsys, command, key, wrap):
    half = generators.ExhaustiveRectangle(13, 1)  # 1-bit blocks: window 1, cheap to check
    cases = [
        (generators.base_exhaustive(25), 1,
         "exhaustive_rect: seed enumeration needs 2**25 expansions (cap 24 bits)", 25),
        # each 13-bit half fits the cap; the 26-bit product does not
        (generators.interleave(half, half), 1,
         "interleave: seed enumeration needs 2**26 expansions (cap 24 bits)", 26),
        (generators.interleave(generators.PairwiseRectangle(16, 2),
                               generators.PairwiseRectangle(16, 2)),
         2, "interleave: flat output of 64 bits does not pack into uint64", 64),
    ]
    for g, bits, message, required in cases:
        config = {key: wrap(g),
                  "family": {"n": g.flat_bits, "t": bits, "budget_bits": 2}}
        code, out = run(tmp_path, command, config)
        assert code == EXIT_CAP
        # the refusal names the node, and the bits it needs
        assert f"refused: {message} (required bits: {required})" in capsys.readouterr().err
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


NESTED_INTERLEAVE = generators.inw_stretch(
    generators.interleave(generators.base_exhaustive(2), generators.base_exhaustive(2)),
    perfect_extractor(4),
)


@pytest.mark.parametrize(
    "command, key, spec, report, n",
    [
        ("verify-fool", "generator",
         generators.interleave(generators.base_exhaustive(2), generators.base_exhaustive(2))
         .to_json(),
         "fooling.json", 4),
        ("verify-hit", "hsg",
         hsg_config(generators.interleave(hsg.hsg_exhaustive(2), hsg.hsg_exhaustive(2)),
                    "hsg_interleave"),
         "hitting.json", 4),
        ("verify-fool", "generator", NESTED_INTERLEAVE.to_json(), "fooling.json", 8),
    ],
    ids=["verify-fool", "verify-hit", "verify-fool-nested"],
)
def test_interleave_window_precondition(tmp_path, command, key, spec, report, n):
    # block_bits is 2, also of the interleave under the stretch: programs of
    # window 3 or 4 are outside the budget's class
    for t in (3, 4):
        config = {key: spec, "family": {"n": n, "t": t, "budget_bits": 4}}
        code, out = run(tmp_path, command, config)
        assert code == EXIT_CONFIG
        assert not out.exists()
    config["family"]["t"] = 2
    code, out = run(tmp_path, command, config)
    assert code == EXIT_PASS
    assert json.loads((out / report).read_text())["passed"] is True


def test_verify_hit(tmp_path):
    h = hsg.build_swbp_hsg(8, 2, 4, hsg.hsg_exhaustive(2))
    config = {"hsg": hsg_config(h, "hsg_interleave"), "family": {"n": 8, "t": 2, "budget_bits": 5}}
    code, out = run(tmp_path, "verify-hit", config)
    assert code == EXIT_PASS
    payload = json.loads((out / "hitting.json").read_text())
    assert payload["passed"]
    work = {key: payload["metadata"][key]
            for key in ("seeds_expanded", "distinct_outputs", "seed_layer_evals",
                        "programs_counted")}
    # an interleave expands each half on its own seeds, 2**4 + 2**4 of them
    assert work == {"seeds_expanded": (1 << h.g1.d) + (1 << h.g2.d),
                    "distinct_outputs": 1 << h.d, "seed_layer_evals": 8 << h.d,
                    "programs_counted": 32}
    # a stated threshold other than the derived 0 is refused; trusted, "1"
    # would require only 1 of the family's 8,192 programs to be hit
    config["hsg"]["threshold"] = "1"
    config["family"]["budget_bits"] = 13
    refused = tmp_path / "refused"
    refused.mkdir()
    code, out = run(refused, "verify-hit", config)
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_verify_hit_reads_a_hsg_of_prg_halves(tmp_path):
    rc = generators.rect_compose(
        generators.base_exhaustive(2), generators.PairwiseRectangle(2, 2, Fraction(1, 8))
    )
    h = generators.interleave(rc, rc)
    assert h.eps_budget == Fraction(1, 4)
    config = {"hsg": hsg_config(h, "hsg_interleave"), "family": {"n": 8, "t": 2, "budget_bits": 8}}
    code, out = run(tmp_path, "verify-hit", config)
    assert code == EXIT_PASS
    payload = json.loads((out / "hitting.json").read_text())
    assert payload["passed"] and payload["threshold"] == "1/4"


def test_verify_hit_reads_every_old_kind_at_the_carrier_budget(tmp_path):
    # an HSG config loads as its carrier, at the carrier's budget
    rc = generators.rect_compose(
        generators.base_exhaustive(2), generators.PairwiseRectangle(4, 2, Fraction(1, 8))
    )
    bench = json.loads((CONFIGS / "hit-family.json").read_text())["hsg"]
    whole = generators.interleave(rc, rc)
    loaded = [
        (bench, generators.generator_from_json(bench["carrier"])),
        (hsg_config(rc), rc),
        (hsg_config(rc, "hsg_rect"), rc),  # the old rule gave 2 * max(4 * 0, 1/8) = 1/4
        (hsg_config(whole, "hsg_interleave"), whole),
    ]
    refused = [
        hsg_config(rc, "hsg_rect", Fraction(1, 4)),
        {**bench, "threshold": "1/4"},
        hsg_config(rc, "hsg_interleave"),  # a kind whose carrier does not fit
        {**bench, "kind": "hsg_rect"},
        hsg_config(rc, "hsg"),  # a kind no carrier has
    ]
    for i, (data, g) in enumerate(loaded + [(data, None) for data in refused]):
        case = tmp_path / f"case{i}"
        case.mkdir()
        n = generators.generator_from_json(data["carrier"]).flat_bits
        config = {"hsg": data, "family": {"n": n, "t": 2, "budget_bits": 6}}
        code, out = run(case, "verify-hit", config)
        if g is None:
            assert code == EXIT_CONFIG and not out.exists(), data
            continue
        assert code in (EXIT_PASS, EXIT_FAIL), data
        payload = json.loads((out / "hitting.json").read_text())
        assert payload["generator"] == g.to_json() == data["carrier"]
        assert payload["threshold"] == str(g.eps_budget)
    assert rc.eps_budget == Fraction(1, 8)


@pytest.mark.parametrize("entry", [[0], [0, 1, 0], 0], ids=["one", "three", "int"])
def test_window_check_refuses_a_transition_that_is_not_a_pair(tmp_path, entry):
    p, _ = bp.canonical_debruijn_swbp(6, 2)
    data = bp.program_to_json(p)
    data["layers"][0]["trans"][p.q0] = entry  # on a reachable state
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(json.dumps(data))
    code, out = run(tmp_path, "window-check", {"program": str(prog_path), "t": 2})
    assert code == EXIT_CONFIG
    assert not out.exists()


def test_verify_fool_refuses_a_state_that_is_not_an_int(tmp_path):
    # a 1.5 used to load, and the exhaustive generator (error 0 by
    # construction) was reported at worst_error 1/4 with exit 1
    p, _ = bp.canonical_debruijn_swbp(2, 2)
    data = bp.program_to_json(p)
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(json.dumps(data))
    config = {"generator": {"kind": "exhaustive", "t": 2}, "program": str(prog_path)}
    assert run(tmp_path, "verify-fool", config)[0] == EXIT_PASS
    data["layers"][1]["trans"][0] = [0, 1.5]
    prog_path.write_text(json.dumps(data))
    code, out = run(tmp_path, "verify-fool", config, ["--out", str(tmp_path / "bad")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("change", [
    {"generators": [1]},
    {"generators": [0, 1, 2, 4]},
    {"kind": "caley"},
    {"eps": "0"},
    {"bias": "0"},
], ids=["short", "out-of-range", "kind", "eps", "bias"])
def test_gen_refuses_a_malformed_extractor(tmp_path, change):
    g = generators.inw_stretch(generators.base_exhaustive(2), cayley_extractor(2, 2, Fraction(1, 2)))
    spec = g.to_json()
    assert len(spec["extractor"]["generators"]) == 4
    spec["extractor"].update(change)
    code, out = run(tmp_path, "gen", {"generator": spec, "dump": True})
    assert code == EXIT_CONFIG
    assert not out.exists()


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


def test_paca_refuses_eps_outside_the_unit_interval(tmp_path):
    for mode in ("derand1", "derand2"):
        for eps in ("2", "0", "-1/4"):
            config = {"paca": "c1", "mode": mode, "input": [0], "eps": eps}
            code, out = run(tmp_path, "paca", config)
            assert code == EXIT_CONFIG and not (out / "paca.json").exists(), (mode, eps)


def n64_paca_modes(tmp_path):
    """exact, derand1 and derand2 on a random q = 3, T = 4 PACA over a
    64-symbol input, where no chain over whole configurations finishes."""
    c = sample_paca(random.Random(7), 3, 4)
    paca_path = tmp_path / "q3t4.json"
    paca_path.write_text(json.dumps(paca_to_json(c)))
    rng = random.Random(1)
    x = [rng.choice(c.sigma) for _ in range(64)]
    return [
        ("paca", {"mode": mode, "paca": str(paca_path), "input": x})
        for mode in ("exact", "derand1", "derand2")
    ]


def test_paca_modes_at_n64(tmp_path):
    codes, payloads = [], []
    for i, (command, config) in enumerate(n64_paca_modes(tmp_path)):
        out = tmp_path / f"out{i}"
        codes.append(main([command, "--config", write_config(tmp_path, config),
                           "--out", str(out)]))
        payloads.append(json.loads((out / "paca.json").read_text()))
    exact, derand1, derand2 = payloads
    prob = Fraction(exact["probability"])
    assert 0 < prob < Fraction(1, 2) and Fraction(derand2["eta"]) == prob
    assert (derand1["accept"], derand2["accept"]) == (True, False)
    assert codes == [EXIT_PASS, EXIT_PASS, EXIT_FAIL]


@pytest.mark.parametrize("field, value", [("delta0", 1.5), ("boundary", 7)])
def test_paca_malformed_file_exit_code(tmp_path, field, value):
    spec = paca_to_json(build_c1())
    if field == "boundary":
        spec["boundary"] = value
    else:
        spec[field][spec["states"]][0][0] = value
    paca_path = tmp_path / "bad.json"
    paca_path.write_text(json.dumps(spec))
    code, out = run(tmp_path, "paca", {"mode": "exact", "paca": str(paca_path), "input": [0]})
    assert code == EXIT_CONFIG
    assert not out.exists()


# Runs commands through cli.main in one interpreter and reports their exit
# codes and the modules (numpy and swprg's own) loaded before and after the
# last command.
_STARTUP_PROBE = """
import json, sys
from swprg.cli import main

def loaded():
    return sorted(
        m for m in sys.modules
        if m in ("numpy", "dataclasses", "_hashlib") or m.startswith("swprg.")
    )

codes = [main(argv) for argv in json.loads(sys.argv[1])]
before = loaded()
codes.append(main(json.loads(sys.argv[2])))
print(json.dumps([codes, before, loaded()]))
"""


def probe_startup(tmp_path, commands):
    """Exit codes of ``commands`` run in a fresh interpreter, and the modules
    (numpy, dataclasses, OpenSSL's ``_hashlib`` and ``swprg.*``) loaded
    before and after the last one."""
    argvs = [
        [command, "--config", write_config(tmp_path, config, f"c{i}.json"),
         "--out", str(tmp_path / f"out{i}")]
        for i, (command, config) in enumerate(commands)
    ]
    src = str(Path(swprg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(argvs[:-1]), json.dumps(argvs[-1])],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(probe.stdout)


def c1_paca_modes():
    return [
        ("paca", {"mode": mode, "paca": "c1", "input": [0, 1], "eps": "1/8"})
        for mode in ("exact", "sim", "derand1", "derand2")
    ]


def tiny_verify_fool():
    return ("verify-fool", {
        "generator": generators.base_exhaustive(4).to_json(),
        "family": {"n": 4, "t": 2, "budget_bits": 2},
    })


def test_seedless_commands_start_without_numpy(tmp_path):
    p, _ = bp.canonical_debruijn_swbp(6, 2)
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(json.dumps(bp.program_to_json(p)))
    configs = c1_paca_modes()
    configs.append(("window-check", {"program": str(prog_path), "t": 2}))
    configs.append(tiny_verify_fool())
    codes, before, after = probe_startup(tmp_path, configs)
    assert codes == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_FAIL, EXIT_PASS, EXIT_PASS]
    assert "numpy" not in before
    assert "numpy" in after  # the probe sees numpy once a command loads it


def test_commands_load_only_the_modules_they_use(tmp_path):
    # the four paca modes need no generator, HSG or program module, nor
    # dataclasses or numpy, at n = 64 too
    codes, _, after = probe_startup(tmp_path, c1_paca_modes() + n64_paca_modes(tmp_path))
    assert codes == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_FAIL, EXIT_PASS, EXIT_PASS, EXIT_FAIL]
    assert "swprg.paca" in after
    assert not {
        "swprg.generators", "swprg.hsg", "swprg.bp", "dataclasses", "numpy"
    } & set(after)
    # and verify-fool needs no PACA; its generators do load dataclasses
    codes, _, after = probe_startup(tmp_path, [tiny_verify_fool()])
    assert codes == [EXIT_PASS]
    assert "swprg.lab" in after and "swprg.paca" not in after
    assert "dataclasses" in after


def test_no_command_loads_openssl(tmp_path):
    # hashlib would load _hashlib and with it libcrypto, about 3.6 MB
    p, _ = bp.canonical_debruijn_swbp(6, 2)
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(json.dumps(bp.program_to_json(p)))
    h = hsg.build_swbp_hsg(8, 2, 4, hsg.hsg_exhaustive(2))
    configs = c1_paca_modes() + [
        tiny_verify_fool(),
        ("verify-hit", {"hsg": hsg_config(h), "family": {"n": 8, "t": 2, "budget_bits": 5}}),
        ("window-check", {"program": str(prog_path), "t": 2}),
        ("gen", {"generator": generators.base_exhaustive(3).to_json(), "dump": True}),
    ]
    codes, _, after = probe_startup(tmp_path, configs)
    assert codes == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_FAIL] + [EXIT_PASS] * 4
    # every command ran, so the probe lists each module it loaded
    assert {"numpy", "swprg.lab", "swprg.hsg", "swprg.paca", "swprg.bp"} <= set(after)
    assert "_hashlib" not in after


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


@pytest.mark.parametrize("t", [True, 2.0, 0], ids=["true", "float", "zero"])
def test_window_size_that_is_not_an_int_is_a_bad_config(tmp_path, t):
    # true was read as window 1: window-check exited 1 with a violation, and
    # verify-fool exited 0 over a family it named "canonical n=4 t=True"
    p, _ = bp.canonical_debruijn_swbp(4, 2)
    prog_path = tmp_path / "prog.json"
    prog_path.write_text(json.dumps(bp.program_to_json(p)))
    configs = [
        ("window-check", {"program": str(prog_path), "t": t}),
        ("verify-fool", {"generator": {"kind": "exhaustive", "t": 4},
                         "family": {"n": 4, "t": t, "budget_bits": 2}}),
    ]
    for command, config in configs:
        code, out = run(tmp_path, command, config)
        assert code == EXIT_CONFIG, command
        assert not out.exists()


@pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
def test_a_fraction_that_is_a_float_or_a_bool_is_a_bad_config(tmp_path, value):
    # verify-fool with "eps_budget": 0.1 passed and wrote the budget
    # 3602879701896397/36028797018963968; paca read its eps the same way
    family = {"n": 4, "t": 2, "budget_bits": 2}
    nisan = {"kind": "nisan", "t": 4, "w": 4, "eps_target": "1/4"}
    configs = [
        ("verify-fool", {"generator": {"kind": "exhaustive", "t": 4}, "family": family,
                         "eps_budget": value}),
        ("verify-fool", {"generator": {**nisan, "eps_target": value}, "family": family}),
        ("verify-hit", {"hsg": {"kind": "prg_as_hsg", "carrier": nisan, "threshold": value},
                        "family": family}),
        ("paca", {"paca": "c1", "mode": "derand1", "input": [0], "eps": value}),
        ("paca", {"paca": "c1", "mode": "derand2", "input": [0], "eps": value}),
    ]
    for command, config in configs:
        code, out = run(tmp_path, command, config)
        assert code == EXIT_CONFIG and not out.exists(), (command, config)


def test_verify_fool_refuses_a_bool_or_negative_budget(tmp_path, capsys):
    config = {"generator": {"kind": "exhaustive", "t": 4},
              "family": {"n": 4, "t": 2, "budget_bits": 2}}
    for eps in ("-1/2", -1, True, False):
        code, out = run(tmp_path, "verify-fool", {**config, "eps_budget": eps})
        assert code == EXIT_CONFIG, eps
        assert "eps_budget must be a number >= 0" in capsys.readouterr().err
        assert not out.exists()
    # a budget of 1 or more stays legal, and is reported vacuous
    for eps in ("1", "3/2", 2):
        code, out = run(tmp_path, "verify-fool", {**config, "eps_budget": eps})
        payload = json.loads((out / "fooling.json").read_text())
        assert (code, payload["eps_budget"], payload["vacuous"]) == (
            EXIT_PASS, str(Fraction(eps)), True
        )
