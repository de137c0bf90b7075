"""Set-up half of a job, in a fresh interpreter: import the CLI and build
the workload's specs and inputs, stopping before the first seed is
expanded; then print ``time.monotonic()``.

    python3 perfbench/setup_probe.py fool-family CONFIG.json
    python3 perfbench/setup_probe.py hit-family CONFIG.json
    python3 perfbench/setup_probe.py paca-derand GENERATOR.json PACA.json...

The caller reads the clock just before starting the process, so the
difference is the set-up time including interpreter start.
"""

import json
import sys
import time


def main(argv) -> None:
    from swprg import cli, generators, hsg, lab, paca  # noqa: F401  (cli: what a job imports)

    workload, paths = argv[0], argv[1:]
    if workload in ("fool-family", "hit-family"):
        with open(paths[0]) as fh:
            config = json.load(fh)
        if workload == "fool-family":
            generators.generator_from_json(config["generator"])
        else:
            hsg.hsg_from_json(config["hsg"])
        family = config["family"]
        list(lab.enumerate_swbp_family(family["n"], family["t"], family["budget_bits"]))
    elif workload == "paca-derand":
        with open(paths[0]) as fh:
            generators.generator_from_json(json.load(fh))
        paca.build_c1()
        paca.build_c2()
        for path in paths[1:]:
            paca.load_paca(path)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
