"""Two-sided PACA derandomization through a chosen short-seed generator.

``swprg paca`` always uses the exhaustive generator for ``derand2``, so
this script is the benchmark's way to run ``paca.derandomize_two_sided``
through another one.  It writes ``paca-gen.json`` into ``--out`` with the
decision, eta and every inclusion-exclusion term, and exits 0.

    python3 perfbench/gen_job.py --generator SPEC.json --paca PACA.json \
        --input 0,2,1,1 --eps 1/8 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--generator", required=True, help="generator spec JSON file")
    parser.add_argument("--paca", required=True, help="PACA JSON file")
    parser.add_argument("--input", required=True, help="comma-separated input symbols")
    parser.add_argument("--eps", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from swprg import generators, paca

    from pacasim import term_key

    with open(args.generator) as fh:
        g = generators.generator_from_json(json.load(fh))
    c = paca.load_paca(args.paca)
    x = tuple(int(s) for s in args.input.split(","))
    result = paca.derandomize_two_sided(c, x, Fraction(args.eps), lambda m, thr: g)
    payload = {
        "accept": result.accept,
        "eta": str(result.eta),
        "seed_bits": g.d,
        "eta_terms": {term_key(steps): str(value) for steps, value in result.eta_terms.items()},
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "paca-gen.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
