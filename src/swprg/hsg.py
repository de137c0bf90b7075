"""Generators read as hitting-set generators.

An eps-PRG is its own hitting-set generator at threshold eps: a program
accepted with probability above eps under uniform inputs is accepted with
probability above 0 under the outputs, so some seed hits it.  So an HSG is a
generator read under the hitting contract, its threshold its ``eps_budget``;
this module keeps the HSG names of the pipelines and reads the HSG configs.
"""

from __future__ import annotations

from typing import Optional

from .errors import ConfigurationError, ParameterError, read_fraction
from .generators import (
    GeneratorSpec,
    Interleave,
    RectCompose,
    base_exhaustive,
    build_swbp_prg,
    generator_from_json,
)

hsg_exhaustive = base_exhaustive


def build_swbp_hsg(
    n: int, t: int, w: int, base: GeneratorSpec, rect: Optional[GeneratorSpec] = None
) -> Interleave:
    """Hitting-set pipeline for width-w window-t length-n programs: the
    "rect" pipeline of :func:`build_swbp_prg`."""
    return build_swbp_prg(n, t, w, base, "rect", rect)


# An HSG config's kind, to the class of generator that can carry it.
CARRIERS = {"prg_as_hsg": GeneratorSpec, "hsg_rect": RectCompose, "hsg_interleave": Interleave}


def hsg_from_json(data: dict) -> GeneratorSpec:
    """The generator an HSG config ``{"kind", "carrier", "threshold"}``
    carries.  A kind that no such class carries, or a threshold that is not an
    int or a fraction string, is refused with :class:`ParameterError`, a
    threshold other than the carrier's budget with :class:`ConfigurationError`."""
    kind, carrier = data["kind"], generator_from_json(data["carrier"])
    if not isinstance(carrier, CARRIERS.get(kind, ())):
        raise ParameterError(f"HSG kind {kind!r} cannot be carried by a {carrier.kind!r} node")
    if read_fraction(data["threshold"], "threshold") != carrier.eps_budget:
        raise ConfigurationError(
            f"threshold {data['threshold']} is not {carrier.eps_budget}, "
            f"the budget of its {carrier.kind} carrier"
        )
    return carrier
