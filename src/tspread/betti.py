"""Graded Betti numbers of strongly stable ideals and their extremal corners.

For a t-strongly stable ideal the whole Betti table is determined by the
minimal generators: a generator u of degree j contributes the binomial row
C(max(u) - t(j-1) - 1, i), one row per (degree, max index) shape times the
number of generators of that shape.  That closed form is the only
resolution engine here; corners (extremal entries) fall out of the
per-degree top indices, and prescribed corner configurations are realized
greedily and verified by a round trip through the detector.

No generator scan is left.  Whether the ideal is strongly stable at all is
decided by column passes over each degree's generators (single decrements
zipped from the index columns and looked up by prefix, see
``construct.is_t_ss_ideal``),
and the table, degree sequence and corners all read one count of the
generators' (degree, max index) shapes, so every invariant here is linear
in the number of generators.  The ideal remembers both the verdict and the
shapes, so asking it for several invariants pays for them once.
Realization tests its candidates against the ideal built so far the same
way: that ideal is strongly stable by construction, so a t-spread monomial
lies in it exactly when one of its prefixes is a generator.  Its new
generators come from the same pruned walk as ``construct.t_ss_ideal``: the
monomials Borel-above the chosen ones are grown prefix by prefix, and a
prefix that is already a generator is dropped with everything below it, so
no member of the ideal built so far is built again.
"""
from __future__ import annotations

from math import comb

from .core import (
    Context,
    Frozen,
    InfeasibleCornersError,
    Monomial,
    MonomialIdeal,
    NotStronglyStableError,
    TSpreadError,
    _has_prefix_in,
)
from .construct import _fresh, _shapes, is_t_ss_ideal, iter_veronese

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Mapping


class BettiTable(Frozen):
    """Finitely supported table of graded Betti numbers.

    Keys are pairs (homological index i, generator degree j) for the entry
    counting degree i+j syzygies; zero entries are not stored.
    """

    __slots__ = ("entries",)
    entries: dict[tuple[int, int], int]

    def __init__(self, entries: Mapping[tuple[int, int], int] | None = None) -> None:
        entries = {} if entries is None else entries
        object.__setattr__(self, "entries", {k: v for k, v in entries.items() if v})

    def _key(self) -> tuple:
        return (self.entries,)  # a dict: tables compare equal but do not hash

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def degrees(self) -> list[int]:
        return sorted({j for _, j in self.entries})

    @property
    def max_index(self) -> int:
        """Largest homological index carrying a nonzero entry."""
        return max((i for i, _ in self.entries), default=0)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.max_index + 1)]

    def to_grid(self) -> str:
        """Plain-text grid: one column per homological index, totals row first."""
        if not self.entries:
            return "total : 0"
        degrees = self.degrees()
        rows = list(range(degrees[0], degrees[-1] + 1))
        width = self.max_index + 1
        labels = ["", "total"] + [str(j) for j in rows]
        cells = [[str(i) for i in range(width)], [str(t) for t in self.totals()]]
        for j in rows:
            cells.append([str(self.entry(i, j)) if self.entry(i, j) else "-" for i in range(width)])
        label_w = max(len(s) for s in labels)
        col_w = [max(len(row[i]) for row in cells) for i in range(width)]
        lines = []
        for label, row in zip(labels, cells):
            head = f"{label:>{label_w}} :" if label else " " * (label_w + 2)
            lines.append(head + " " + " ".join(f"{c:>{w}}" for c, w in zip(row, col_w)))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "entries": {f"{i},{j}": v for (i, j), v in sorted(self.entries.items())},
            "totals": self.totals(),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BettiTable":
        entries = {}
        for key, v in data["entries"].items():
            i, j = (int(x) for x in key.split(","))
            entries[(i, j)] = int(v)
        return cls(entries)


class CornerConfig(Frozen):
    """Extremal corner positions (k, degree) with their prescribed values.

    Corners are listed with strictly decreasing homological positions and
    strictly increasing degrees, the order in which they appear along the
    staircase of the table.
    """

    __slots__ = ("corners", "values")
    corners: tuple[tuple[int, int], ...]
    values: tuple[int, ...]

    def __init__(self, corners: Iterable[tuple[int, int]], values: Iterable[int]) -> None:
        corners = tuple((int(k), int(l)) for k, l in corners)
        values = tuple(int(a) for a in values)
        object.__setattr__(self, "corners", corners)
        object.__setattr__(self, "values", values)
        if len(corners) != len(values):
            raise TSpreadError("one value is needed per corner")
        if any(a < 1 for a in values):
            raise TSpreadError("corner values must be positive")
        if any(k < 0 or l < 1 for k, l in corners):
            raise TSpreadError("corner positions must satisfy k >= 0, degree >= 1")
        ks = [k for k, _ in corners]
        ls = [l for _, l in corners]
        if any(a <= b for a, b in zip(ks, ks[1:])):
            raise TSpreadError("homological positions must strictly decrease")
        if any(a >= b for a, b in zip(ls, ls[1:])):
            raise TSpreadError("corner degrees must strictly increase")

    def _key(self) -> tuple:
        return (self.corners, self.values)


def _require_strongly_stable(ideal: MonomialIdeal) -> MonomialIdeal:
    if not is_t_ss_ideal(ideal):
        raise NotStronglyStableError("expected a t-strongly stable ideal")
    return ideal


def graded_betti(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of a t-strongly stable ideal from its generators alone."""
    _require_strongly_stable(ideal)
    t = ideal.ctx.t
    entries: dict[tuple[int, int], int] = {}
    # generators sharing degree and largest index contribute alike
    for (j, top), c in _shapes(ideal).items():
        reach = top - t * (j - 1) - 1
        for i in range(reach + 1):
            entries[(i, j)] = entries.get((i, j), 0) + c * comb(reach, i)
    return BettiTable(entries)


def degree_sequence(ideal: MonomialIdeal) -> list[tuple[int, int, int]]:
    """Per generator degree: (degree, largest generator max-index, corner slot).

    The slot of degree j is max-index - t(j-1) - 1, the homological position
    a corner in that degree would occupy.
    """
    return _degree_sequence(_shapes(ideal), ideal.ctx.t)


def _degree_sequence(shapes: Mapping[tuple[int, int], int], t: int) -> list[tuple[int, int, int]]:
    # the shapes in ascending order leave each degree's largest max index last
    return [(d, top, top - t * (d - 1) - 1) for d, top in dict(sorted(shapes)).items()]


def extremal_corners(ideal: MonomialIdeal) -> CornerConfig:
    """Corner positions and values of a t-strongly stable ideal.

    A degree survives exactly when its slot beats every slot of a higher
    degree, so a right-to-left scan keeping the running maximum finds all
    corners without touching the Betti table.
    """
    return _corners(_require_strongly_stable(ideal))


def _corners(ideal: MonomialIdeal) -> CornerConfig:
    # a corner's value counts the generators of its degree and top index
    shapes = _shapes(ideal)
    t = ideal.ctx.t
    kept: list[tuple[int, int]] = []
    best = -1
    for d, _, k in reversed(_degree_sequence(shapes, t)):
        if k > best:
            kept.append((k, d))
            best = k
    kept.reverse()
    values = tuple(shapes[(l, k + t * (l - 1) + 1)] for k, l in kept)
    return CornerConfig(tuple(kept), values)


def _candidates_with_top(degree: int, top: int, ctx: Context) -> Iterator[Monomial]:
    # Degree-`degree` t-spread monomials whose largest index is exactly `top`,
    # descending in slex: prefixes range over the Veronese set on top-t letters.
    if degree == 1:
        yield (top,)
        return
    prefix_ctx = Context(top - ctx.t, ctx.t)
    for prefix in iter_veronese(degree - 1, prefix_ctx):
        yield prefix + (top,)


def _corner_tops(config: CornerConfig, ctx: Context) -> list[int]:
    # each corner's top index, k + t(l-1) + 1, or the refusal of the first
    # one beyond n: checked before any walk, by the size guard first
    tops = [k + ctx.t * (l - 1) + 1 for k, l in config.corners]
    for (k, l), top in zip(config.corners, tops):
        if top > ctx.n:
            raise InfeasibleCornersError(
                f"corner ({k},{l}) needs variable index {top}, beyond n={ctx.n}"
            )
    return tops


def realize_extremal_betti(
    config: CornerConfig, ctx: Context
) -> tuple[list[Monomial], MonomialIdeal]:
    """Basic monomials and the smallest strongly stable ideal with the
    prescribed extremal corners and values.

    Every corner's forced top index is checked against n first, before any
    walk.  Corners are then processed by increasing degree; each takes the
    slex-largest monomials with the forced top index that the ideal built
    so far does not already contain, then closes them off.  The result is
    verified by re-detecting the corners; any mismatch or shortage of
    candidates means the configuration is not realizable.

    The running ideal is strongly stable by construction, so membership is
    a prefix lookup in its generator set.  Degrees strictly increase, so no
    new closure member divides an old generator: the new minimal generators
    are the closure members outside the running ideal, appended in order.
    The walk that lists them grows the monomials Borel-above the chosen
    ones prefix by prefix and drops a prefix as soon as it is a generator,
    so it never visits a member of the running ideal.
    """
    basics: list[Monomial] = []
    gens: list[Monomial] = []
    gen_set: set[Monomial] = set()
    for (k, l), a, top in zip(config.corners, config.values, _corner_tops(config, ctx)):
        chosen: list[Monomial] = []
        for w in _candidates_with_top(l, top, ctx):
            if _has_prefix_in(w, gen_set):
                continue
            chosen.append(w)
            if len(chosen) == a:
                break
        if len(chosen) < a:
            raise InfeasibleCornersError(
                f"corner ({k},{l}) admits only {len(chosen)} free monomials, "
                f"cannot reach value {a}"
            )
        basics += chosen
        start = len(gens)
        _fresh(chosen, gen_set, ctx.t, gens)
        gen_set.update(gens[start:])
    running = MonomialIdeal._of_minimal(ctx, tuple(gens), stable=True)
    detected = _corners(running)
    if detected != config:
        raise InfeasibleCornersError(
            f"configuration not realizable: construction yields corners "
            f"{detected.corners} with values {detected.values}"
        )
    return basics, running
