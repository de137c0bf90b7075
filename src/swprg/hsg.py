"""Hitting-set analogues of the generator combinators.

An HSG is a generator node under the hitting contract: it expands through
its ``carrier`` generator, and its budget is a hitting threshold -- any
program of the intended class whose acceptance probability reaches the
threshold must accept at least one output.  Budgets differ from the
fooling case -- composition pays 2 * max(r * eps_base, eps_cr) rather than
a sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .errors import DEFAULT_CAP_BITS, ParameterError
from .generators import (
    GeneratorSpec,
    Interleave,
    RectCompose,
    base_exhaustive,
    build_swbp_prg,
    generator_from_json,
)


@dataclass(frozen=True)
class HsgSpec(GeneratorSpec):
    """A generator reinterpreted under the hitting contract.

    ``eps_budget`` is the acceptance-probability threshold above which a
    witness output is guaranteed; ``kind`` names the rule that set it.
    """

    carrier: GeneratorSpec
    threshold: Fraction
    kind: str = "prg_as_hsg"

    @property
    def d(self) -> int:
        return self.carrier.d

    @property
    def blocks(self) -> int:
        return self.carrier.blocks

    @property
    def block_bits(self) -> int:
        return self.carrier.block_bits

    @property
    def eps_budget(self) -> Fraction:
        return self.threshold

    def expand_seeds(self, seeds: np.ndarray) -> np.ndarray:
        return self.carrier.expand_seeds(seeds)

    def output_counts(self, cap: int = DEFAULT_CAP_BITS) -> Tuple[np.ndarray, np.ndarray]:
        return self.carrier.output_counts(cap)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "carrier": self.carrier.to_json(),
            "threshold": str(self.threshold),
        }


def from_prg(g: GeneratorSpec) -> HsgSpec:
    """An eps-PRG hits everything accepted with probability above eps.

    (Acceptance probability p under a PRG output is at least p - eps > 0.)
    """
    return HsgSpec(g, g.eps_budget, "prg_as_hsg")


def hsg_exhaustive(t: int) -> HsgSpec:
    return from_prg(base_exhaustive(t))


def hsg_rect_compose(base: HsgSpec, rect: GeneratorSpec) -> HsgSpec:
    """Rectangle composition under the hitting contract.

    Threshold 2 * max(r * base_threshold, eps_cr): one factor of two for
    converting the fooling-style bound into a one-sided hitting bound, the
    max because only the dominant failure mode matters for hitting.
    """
    carrier = RectCompose(base.carrier, rect)
    thr = 2 * max(carrier.blocks * base.threshold, rect.eps_budget)
    return HsgSpec(carrier, thr, "hsg_rect")


def hsg_interleave(h1: HsgSpec, h2: HsgSpec) -> HsgSpec:
    """Interleave two HSGs; threshold doubles the larger component's."""
    carrier = Interleave(h1.carrier, h2.carrier)
    return HsgSpec(carrier, 2 * max(h1.threshold, h2.threshold), "hsg_interleave")


def build_swbp_hsg(
    n: int, t: int, w: int, base: HsgSpec, rect: Optional[GeneratorSpec] = None
) -> HsgSpec:
    """Hitting-set pipeline for width-w window-t length-n programs: the shape-checked
    "rect" pipeline of :func:`build_swbp_prg` on ``base``'s carrier, as an HSG."""
    prg = build_swbp_prg(n, t, w, base.carrier, "rect", rect)
    half = hsg_rect_compose(base, prg.g1.rect)
    return hsg_interleave(half, half)


def hsg_from_json(data: dict) -> HsgSpec:
    kind = data["kind"]
    if kind in ("prg_as_hsg", "hsg_rect", "hsg_interleave"):
        return HsgSpec(generator_from_json(data["carrier"]), Fraction(data["threshold"]), kind)
    raise ParameterError(f"unknown hsg kind {kind!r}")
