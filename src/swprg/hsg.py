"""Hitting-set analogues of the generator combinators.

An HSG is a generator node under the hitting contract: it expands through
its ``carrier`` generator, and its budget is a hitting threshold -- any
program of the intended class whose acceptance probability is above the
threshold must accept at least one output.  Budgets differ from the
fooling case -- composition pays 2 * max(r * eps_base, eps_cr) rather than
a sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Set, Tuple

from .errors import DEFAULT_CAP_BITS, ConfigurationError, ParameterError
from .generators import (
    GeneratorSpec,
    Interleave,
    RectCompose,
    base_exhaustive,
    build_swbp_prg,
    generator_from_json,
)

if TYPE_CHECKING:
    import numpy as np


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

    def expand_all(self, cap: int = DEFAULT_CAP_BITS) -> np.ndarray:
        return self.carrier.expand_all(cap)

    def output_counts(self, cap: int = DEFAULT_CAP_BITS) -> Tuple[np.ndarray, np.ndarray]:
        return self.carrier.output_counts(cap)

    @property
    def seeds_expanded(self) -> int:
        return self.carrier.seeds_expanded


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


def _readings(carrier: GeneratorSpec) -> Set[HsgSpec]:
    """Every HSG the combinators build over ``carrier``: the PRG as an HSG, a
    rectangle composition over each reading of its base, and an interleave
    of each pair of readings of its halves.  Equal readings collapse."""
    found = {from_prg(carrier)}
    if isinstance(carrier, RectCompose):
        found |= {hsg_rect_compose(b, carrier.rect) for b in _readings(carrier.base)}
    elif isinstance(carrier, Interleave):
        firsts, seconds = _readings(carrier.g1), _readings(carrier.g2)
        found |= {hsg_interleave(h1, h2) for h1 in firsts for h2 in seconds}
    return found


def hsg_from_json(data: dict) -> HsgSpec:
    """Rebuild an HSG from its JSON: the reading of the carrier (see
    :func:`_readings`) of the stated ``kind`` and threshold.  A kind no
    reading has is refused with :class:`ParameterError`, a threshold no
    reading of that kind derives with :class:`ConfigurationError`."""
    kind, threshold = data["kind"], Fraction(data["threshold"])
    carrier = generator_from_json(data["carrier"])
    derived = sorted({h.threshold for h in _readings(carrier) if h.kind == kind})
    if not derived:
        raise ParameterError(f"a {kind!r} HSG cannot be carried by a {type(carrier).__name__}")
    if threshold not in derived:
        raise ConfigurationError(
            f"threshold {data['threshold']} is none of the thresholds "
            f"{', '.join(map(str, derived))} that the {kind} rule derives from the carrier"
        )
    return HsgSpec(carrier, threshold, kind)
