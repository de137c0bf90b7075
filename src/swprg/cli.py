"""Command-line front end: expand generators, run the exhaustive fooling /
hitting reports, check window certificates, and drive the PACA pipeline.

Every run is driven by a single JSON config file; outputs embed the config
hash so runs are attributable, with timestamps kept in a separate metadata
field so the payloads stay byte-identical across runs.

Exit codes: 0 = pass, 1 = budget violation / window violation / reject,
2 = enumeration cap refused, 3 = bad config (a missing or malformed value).

Each command imports the modules it uses when it runs, so ``paca`` and
``window-check``, which expand no seed, never load numpy, ``paca`` loads no
generator or program module and no ``dataclasses``, the verify commands
never load ``paca``, and none loads ``hashlib`` (:func:`_config_hash`).
``--cap-seeds`` bounds generator seed enumeration, in
``gen``, ``verify-fool`` and ``verify-hit``; no ``paca`` mode reads it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DEFAULT_CAP_BITS, CapExceeded, SwprgError

if TYPE_CHECKING:
    from .paca import Paca

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CAP = 2
EXIT_CONFIG = 3


def _config_hash(config: dict) -> str:
    """The first 16 hex digits of SHA-256 over the sorted-key JSON config.

    SHA-256 comes from the interpreter's built-in module where there is one,
    as ``random`` takes its sha512: ``hashlib`` loads OpenSSL's libcrypto,
    about 3.6 MB of resident memory for one small digest."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    blob = json.dumps(config, sort_keys=True).encode()
    return sha256(blob).hexdigest()[:16]


def _write(out_dir: Path, name: str, payload: dict, config: dict) -> None:
    payload = dict(payload)
    payload["config_hash"] = _config_hash(config)
    metadata = payload.setdefault("metadata", {})
    metadata["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def _load_programs(config: dict):
    """A family descriptor {"n", "t", "budget_bits"} or an explicit
    {"program": path} entry, as a family and its name."""
    from . import bp, lab

    fam = config.get("family")
    if fam is not None:
        return (
            lab.swbp_family(fam["n"], fam["t"], fam.get("budget_bits")),
            f"canonical n={fam['n']} t={fam['t']}",
        )
    return lab.MaskFamily(bp.load_program(config["program"])), config["program"]


def cmd_gen(config: dict, out_dir: Path, args) -> int:
    from . import generators

    g = generators.generator_from_json(config["generator"])
    payload = {
        "generator": g.to_json(),
        "seed_bits": g.d,
        "blocks": g.blocks,
        "block_bits": g.block_bits,
        "eps_budget": str(g.eps_budget),
    }
    if config.get("dump", False):
        outs = g.expand_all(args.cap_seeds)
        payload["expansion"] = [int(v) for v in outs]
    _write(out_dir, "generator.json", payload, config)
    return EXIT_PASS


def cmd_verify_fool(config: dict, out_dir: Path, args) -> int:
    from . import generators, lab

    g = generators.generator_from_json(config["generator"])
    family, family_name = _load_programs(config)
    eps = Fraction(config.get("eps_budget", g.eps_budget))
    report = lab.run_fooling_report(g, family, eps, family_name, args.cap_seeds)
    _write(out_dir, "fooling.json", report.to_json(), config)
    (out_dir / "fooling.csv").write_text(report.to_csv())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_verify_hit(config: dict, out_dir: Path, args) -> int:
    from . import hsg, lab

    h = hsg.hsg_from_json(config["hsg"])
    family, family_name = _load_programs(config)
    report = lab.run_hitting_report(h, family, family_name, args.cap_seeds)
    _write(out_dir, "hitting.json", report.to_json(), config)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_window_check(config: dict, out_dir: Path, args) -> int:
    from . import bp

    p = bp.load_program(config["program"])
    result = bp.check_window(p, config["t"])
    if isinstance(result, bp.WindowCertificate):
        payload = {"result": "certificate", "t": result.t, "alphas": list(map(list, result.alphas))}
    else:
        payload = {"result": "violation", "layer": result.layer, "q": result.q,
                   "q_prime": result.q_prime, "word": list(result.word)}
    _write(out_dir, "window.json", payload, config)
    return EXIT_PASS if payload["result"] == "certificate" else EXIT_FAIL


def _load_paca(config: dict) -> Paca:
    from . import paca

    name = config["paca"]
    if name == "c1":
        return paca.build_c1()
    if name == "c2":
        return paca.build_c2()
    return paca.load_paca(name)


def cmd_paca(config: dict, out_dir: Path, args) -> int:
    from . import paca

    c = _load_paca(config)
    x = tuple(config["input"])
    mode = config["mode"]
    if mode == "sim":
        rng = random.Random(config.get("matrix_seed", 0))
        matrix = [
            [rng.randrange(2) for _ in x] for _ in range(c.time_bound)
        ]
        verdict = paca.accepts(c, x, matrix)
        diagram = paca.spacetime_diagram(c, x, matrix)
        _write(out_dir, "paca.json", {
            "mode": "sim", "accept": verdict.accept,
            "first_step": verdict.first_step, "diagram": diagram,
        }, config)
        return EXIT_PASS
    if mode == "exact":
        prob = paca.exact_accept_probability(c, x)
        _write(out_dir, "paca.json", {"mode": "exact", "probability": str(prob)}, config)
        return EXIT_PASS
    eps = Fraction(config.get("eps", "1/4"))
    # no builder: every coin matrix once, counted by the window sweep DP
    if mode == "derand1":
        decision = paca.derandomize_one_sided(c, x, eps, None)
        _write(out_dir, "paca.json", {"mode": "derand1", "accept": decision}, config)
        return EXIT_PASS if decision else EXIT_FAIL
    if mode == "derand2":
        result = paca.derandomize_two_sided(c, x, eps, None)
        _write(out_dir, "paca.json", {
            "mode": "derand2", "accept": result.accept, "eta": str(result.eta),
        }, config)
        return EXIT_PASS if result.accept else EXIT_FAIL
    raise SwprgError(f"unknown paca mode {mode!r}")


COMMANDS = {
    "gen": cmd_gen,
    "verify-fool": cmd_verify_fool,
    "verify-hit": cmd_verify_hit,
    "window-check": cmd_window_check,
    "paca": cmd_paca,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swprg", description="sliding-window PRG/HSG verification harness"
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="ignored: each family is counted in one pass; kept so old command lines run",
    )
    parser.add_argument(
        "--cap-seeds", type=int, default=DEFAULT_CAP_BITS, dest="cap_seeds",
        help="refuse to enumerate more than 2**CAP_SEEDS generator seeds (default %(default)s);"
        " read by gen, verify-fool and verify-hit only, no paca mode enumerates seeds",
    )
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](config, Path(args.out), args)
    except CapExceeded as exc:
        print(f"refused: {exc} (required bits: {exc.required_bits})", file=sys.stderr)
        return EXIT_CAP
    except (SwprgError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
