"""Exact discrete probability core.

Joint distributions over ``n`` source variables, a composite target
``T = (T_1, ..., T_k)``, and an optional auxiliary conditioning variable.
Probabilities are :class:`fractions.Fraction` at every interface, and the
redundancy measures work on integer weights over one common denominator
(see :class:`_Kernel`); base-2 logarithms are applied only at the final
step of each Shannon quantity, so the lattice algebra downstream never
accumulates rounding error beyond the log evaluation itself.

Variables are addressed by *selectors*:

* ``("source", i)`` -- source ``S_i`` (1-based),
* ``("target", j)`` -- target component ``T_j`` (1-based),
* ``"aux"``          -- the auxiliary variable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence, Union

Symbol = Union[int, str]
Selector = Union[tuple, str]


MAX_DIGITS = 4300   # Python's default int <-> str limit; bounds decimal strings


class DistributionError(ValueError):
    """A distribution table violates its contract."""


class ConditioningError(DistributionError):
    """Conditioning on a null (probability-zero) event."""


class EncodingError(DistributionError):
    """A re-encoding table is not invertible on the relevant support."""


def as_fraction(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts Fractions, ints, and strings in either ``"num/den"`` or decimal
    form ("0.25" becomes 1/4 exactly).  Floats are converted through their
    shortest decimal representation.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DistributionError(f"not a probability: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        mantissa, _, exponent = value.replace("_", "").lower().partition("e")
        exponent = exponent.strip().lstrip("+-").lstrip("0")[:5]   # any 5 digits pass the limit
        digits = sum(c.isdecimal() for c in mantissa) + (int(exponent) if exponent.isdecimal() else 0)
        if digits > MAX_DIGITS:
            raise DistributionError(f"probability needs more than {MAX_DIGITS} digits: {value[:40]!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DistributionError(f"cannot parse probability {value!r}") from exc
    if isinstance(value, float):
        return Fraction(str(value))
    raise DistributionError(f"cannot parse probability {value!r}")


def log2_fraction(q: Fraction) -> float:
    """log2 of a positive rational, evaluated without intermediate overflow."""
    if q <= 0:
        raise ValueError(f"log2 of non-positive rational {q}")
    return math.log2(q.numerator) - math.log2(q.denominator)


def _symbol_key(symbol) -> tuple:
    # total order over possibly mixed int/str alphabets
    return (type(symbol).__name__, str(symbol))


def _tuple_key(values: tuple) -> tuple:
    return tuple(_symbol_key(v) for v in values)


@dataclass(frozen=True)
class Outcome:
    """One row of a joint distribution table.

    ``sources`` has one symbol per source variable, ``target`` one symbol per
    target component, and ``aux`` optionally carries the auxiliary variable.
    """

    sources: tuple
    target: tuple
    aux: Symbol | None = None

    def sort_key(self) -> tuple:
        aux_part = () if self.aux is None else (_symbol_key(self.aux),)
        return (_tuple_key(self.sources), _tuple_key(self.target), aux_part)


def _normalize_selector(selector: Selector) -> tuple:
    if selector == "aux" or selector == ("aux",):
        return ("aux",)
    if (
        isinstance(selector, tuple)
        and len(selector) == 2
        and selector[0] in ("source", "target")
        and isinstance(selector[1], int)
    ):
        return selector
    raise DistributionError(f"bad variable selector {selector!r}")


class JointDistribution:
    """Finite joint distribution of sources, composite target, optional aux.

    Invariants enforced at construction: probabilities are exact rationals in
    [0, 1] summing to exactly 1, outcomes are unique, and the positive-mass
    support is nonempty.  Zero-probability rows may be present but are
    ignored by every functional.  Instances are immutable; all operations
    return new distributions.
    """

    __slots__ = ("n_sources", "target_arity", "_rows", "_support", "_digest", "_measure_kernel")

    def __init__(self, n_sources: int, target_arity: int, outcomes: Iterable):
        if n_sources < 1:
            raise DistributionError("need at least one source variable")
        if target_arity < 0:
            raise DistributionError("target arity cannot be negative")
        rows = []
        has_aux = None
        for outcome, prob in outcomes:
            if not isinstance(outcome, Outcome):
                sources, target = outcome[0], outcome[1]
                aux = outcome[2] if len(outcome) > 2 else None
                outcome = Outcome(tuple(sources), tuple(target), aux)
            p = as_fraction(prob)
            if len(outcome.sources) != n_sources:
                raise DistributionError(
                    f"outcome {outcome} has {len(outcome.sources)} source values, expected {n_sources}"
                )
            if len(outcome.target) != target_arity:
                raise DistributionError(
                    f"outcome {outcome} has {len(outcome.target)} target values, expected {target_arity}"
                )
            if p < 0 or p > 1:
                raise DistributionError(f"probability {p} outside [0, 1]")
            row_has_aux = outcome.aux is not None
            if has_aux is None:
                has_aux = row_has_aux
            elif has_aux != row_has_aux:
                raise DistributionError("auxiliary value must be present on all outcomes or none")
            rows.append((outcome, p))
        if not rows:
            raise DistributionError("empty outcome table")
        rows.sort(key=lambda item: item[0].sort_key())
        seen = set()
        for outcome, _ in rows:
            if outcome in seen:
                raise DistributionError(f"duplicate outcome {outcome}")
            seen.add(outcome)
        total = sum(p for _, p in rows)
        if total != 1:
            raise DistributionError(f"probabilities sum to {total}, expected exactly 1")
        support = tuple((o, p) for o, p in rows if p > 0)
        if not support:
            raise DistributionError("support is empty")
        self.n_sources = n_sources
        self.target_arity = target_arity
        self._rows = tuple(rows)
        self._support = support
        self._digest = None
        self._measure_kernel = None

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def outcomes(self) -> tuple:
        """All table rows, including explicit zero-probability ones."""
        return self._rows

    @property
    def support(self) -> tuple:
        """Positive-probability rows in canonical order."""
        return self._support

    @property
    def has_aux(self) -> bool:
        return self._support[0][0].aux is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (
            self.n_sources == other.n_sources
            and self.target_arity == other.target_arity
            and self._support == other._support
        )

    def __hash__(self) -> int:
        return hash((self.n_sources, self.target_arity, self._support))

    def __repr__(self) -> str:
        return (
            f"JointDistribution(n_sources={self.n_sources}, "
            f"target_arity={self.target_arity}, support={len(self._support)} outcomes)"
        )

    # ------------------------------------------------------------------
    # marginals

    def _selector_value(self, outcome: Outcome, selector: tuple):
        kind = selector[0]
        if kind == "source":
            i = selector[1]
            if not 1 <= i <= self.n_sources:
                raise DistributionError(f"source index {i} out of range 1..{self.n_sources}")
            return outcome.sources[i - 1]
        if kind == "target":
            j = selector[1]
            if not 1 <= j <= self.target_arity:
                raise DistributionError(f"target component {j} out of range 1..{self.target_arity}")
            return outcome.target[j - 1]
        if not self.has_aux:
            raise DistributionError("distribution has no auxiliary variable")
        return outcome.aux

    def marginal(self, selectors: Sequence[Selector]) -> dict:
        """Joint marginal over the selected variables.

        Returns a mapping from value tuples to exact probabilities, in the
        canonical support order (so downstream float sums are deterministic).
        """
        sels = [_normalize_selector(s) for s in selectors]
        out: dict = {}
        for outcome, p in self._support:
            key = tuple(self._selector_value(outcome, s) for s in sels)
            out[key] = out.get(key, Fraction(0)) + p
        return out

    def source_marginal(self, indices: Iterable[int]) -> dict:
        return self.marginal([("source", i) for i in sorted(indices)])

    def target_marginal(self) -> dict:
        return self.marginal([("target", j) for j in range(1, self.target_arity + 1)])

    def variable_marginal(self, selector: Selector) -> dict:
        return {key[0]: p for key, p in self.marginal([selector]).items()}

    def variable_support(self, selector: Selector) -> tuple:
        return tuple(self.variable_marginal(selector).keys())

    def _kernel(self) -> "_Kernel":
        """The integer kernel the redundancy measures work on, built on first
        use; safe to keep because the distribution never changes."""
        if self._measure_kernel is None:
            self._measure_kernel = _Kernel(self.n_sources, self._support)
        return self._measure_kernel

    # ------------------------------------------------------------------
    # Shannon quantities (bits)

    def entropy(self, selectors: Sequence[Selector]) -> float:
        """Shannon entropy of the joint marginal over ``selectors``."""
        return -sum(float(p) * log2_fraction(p) for p in self.marginal(selectors).values())

    def mutual_information(self, left: Sequence[Selector], right: Sequence[Selector]) -> float:
        """I(left; right) in bits, from exact joint/marginal ratios."""
        left = [_normalize_selector(s) for s in left]
        right = [_normalize_selector(s) for s in right]
        if not left or not right:
            return 0.0
        joint = self.marginal(list(left) + list(right))
        p_left = self.marginal(left)
        p_right = self.marginal(right)
        k = len(left)
        total = 0.0
        for key, p in joint.items():
            ratio = p / (p_left[key[:k]] * p_right[key[k:]])
            total += float(p) * log2_fraction(ratio)
        return total

    def marginal_mi(self, a: Iterable[int]) -> float:
        """I({S_i : i in a}; T) in bits; the empty collection carries 0 bits."""
        indices = sorted(set(a))
        if not indices:
            return 0.0
        if self.target_arity == 0:
            raise DistributionError("distribution has no target")
        return self.mutual_information(
            [("source", i) for i in indices],
            [("target", j) for j in range(1, self.target_arity + 1)],
        )

    # ------------------------------------------------------------------
    # transformations

    def condition_on(self, selector: Selector, value) -> "JointDistribution":
        """Condition on ``variable == value`` and renormalize.

        Conditioning on a target component removes that component from the
        target tuple; conditioning on the aux variable removes it; a source
        stays in place as a constant so the source arity is preserved.
        """
        sel = _normalize_selector(selector)
        mass = Fraction(0)
        for outcome, p in self._support:
            if self._selector_value(outcome, sel) == value:
                mass += p
        if mass == 0:
            raise ConditioningError(f"conditioning on null event {sel!r} == {value!r}")
        new_rows = []
        kind = sel[0]
        for outcome, p in self._support:
            if self._selector_value(outcome, sel) != value:
                continue
            if kind == "source":
                new_outcome = outcome
            elif kind == "target":
                j = sel[1]
                target = outcome.target[: j - 1] + outcome.target[j:]
                new_outcome = Outcome(outcome.sources, target, outcome.aux)
            else:
                new_outcome = Outcome(outcome.sources, outcome.target, None)
            new_rows.append((new_outcome, p / mass))
        arity = self.target_arity - (1 if kind == "target" else 0)
        return JointDistribution(self.n_sources, arity, _merge_rows(new_rows))

    def restrict_target(self, components: Sequence[int]) -> "JointDistribution":
        """Marginalize the target down to the given components (1-based, in order)."""
        comps = list(components)
        for j in comps:
            if not 1 <= j <= self.target_arity:
                raise DistributionError(f"target component {j} out of range 1..{self.target_arity}")
        rows = []
        for outcome, p in self._support:
            target = tuple(outcome.target[j - 1] for j in comps)
            rows.append((Outcome(outcome.sources, target, outcome.aux), p))
        return JointDistribution(self.n_sources, len(comps), _merge_rows(rows))

    def retarget_to_sources(self, indices: Sequence[int]) -> "JointDistribution":
        """Replace the target by a copy of the selected sources (1-based)."""
        idx = list(indices)
        for i in idx:
            if not 1 <= i <= self.n_sources:
                raise DistributionError(f"source index {i} out of range 1..{self.n_sources}")
        rows = []
        for outcome, p in self._support:
            target = tuple(outcome.sources[i - 1] for i in idx)
            rows.append((Outcome(outcome.sources, target, outcome.aux), p))
        return JointDistribution(self.n_sources, len(idx), _merge_rows(rows))

    def reencode(
        self,
        source_maps: Mapping[int, Mapping] | None = None,
        target_map: Mapping[tuple, tuple] | None = None,
    ) -> "JointDistribution":
        """Relabel outcomes through per-source bijections and/or a bijection
        on the joint target support.

        ``source_maps`` maps 1-based source indices to symbol tables; sources
        without an entry keep their labels.  ``target_map`` maps observed
        target tuples to new tuples (all of one arity, possibly different
        from the current one).  Tables must be injective on the respective
        support.
        """
        source_maps = dict(source_maps or {})
        for i in source_maps:
            if not 1 <= i <= self.n_sources:
                raise DistributionError(f"source index {i} out of range 1..{self.n_sources}")
            support = self.variable_support(("source", i))
            table = source_maps[i]
            images = []
            for value in support:
                if value not in table:
                    raise EncodingError(f"source {i} table is missing support value {value!r}")
                images.append(table[value])
            if len(set(images)) != len(images):
                raise EncodingError(f"source {i} table is not invertible on the support")
        new_arity = self.target_arity
        if target_map is not None:
            support = tuple(self.target_marginal().keys())
            images = []
            for value in support:
                if value not in target_map:
                    raise EncodingError(f"target table is missing support value {value!r}")
                image = tuple(target_map[value])
                images.append(image)
            if len(set(images)) != len(images):
                raise EncodingError("target table is not invertible on the support")
            arities = {len(image) for image in images}
            if len(arities) != 1:
                raise EncodingError("target table maps to tuples of mixed arity")
            new_arity = arities.pop()
        rows = []
        for outcome, p in self._support:
            sources = tuple(
                source_maps[i][outcome.sources[i - 1]] if i in source_maps else outcome.sources[i - 1]
                for i in range(1, self.n_sources + 1)
            )
            target = tuple(target_map[outcome.target]) if target_map is not None else outcome.target
            rows.append((Outcome(sources, target, outcome.aux), p))
        return JointDistribution(self.n_sources, new_arity, rows)

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        outcomes = []
        for outcome, p in self._support:
            entry = {
                "s": list(outcome.sources),
                "t": list(outcome.target),
                "p": f"{p.numerator}/{p.denominator}",
            }
            if outcome.aux is not None:
                entry["z"] = outcome.aux
            outcomes.append(entry)
        return {
            "n_sources": self.n_sources,
            "target_arity": self.target_arity,
            "outcomes": outcomes,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "JointDistribution":
        try:
            n_sources = data["n_sources"]
            target_arity = data["target_arity"]
            entries = list(data["outcomes"])
        except (KeyError, TypeError) as exc:
            raise DistributionError(f"malformed distribution object: {exc}") from exc
        if type(n_sources) is not int or type(target_arity) is not int:
            raise DistributionError(
                f"n_sources and target_arity must be integers: {n_sources!r}, {target_arity!r}"
            )
        rows = []
        for entry in entries:
            try:
                sources, target = entry["s"], entry["t"]
                if type(sources) is not list or type(target) is not list:
                    raise DistributionError(f"outcome fields s and t must be arrays: {entry!r}")
                outcome = Outcome(tuple(sources), tuple(target), entry.get("z"))
                rows.append((outcome, as_fraction(entry["p"])))
            except (KeyError, TypeError) as exc:
                raise DistributionError(f"malformed outcome entry {entry!r}") from exc
            aux = () if outcome.aux is None else (outcome.aux,)
            if not all(type(v) in (int, str) for v in outcome.sources + outcome.target + aux):
                raise DistributionError(f"outcome symbols must be ints or strings: {entry!r}")
        return cls(n_sources, target_arity, rows)

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "JointDistribution":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise DistributionError(f"cannot parse {path}: {exc}") from exc
        return cls.from_json_dict(data)

    @property
    def digest(self) -> str:
        """Stable hash of the canonical support table."""
        if self._digest is None:
            payload = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
            self._digest = hashlib.sha256(payload.encode()).hexdigest()
        return self._digest


class _Kernel:
    """The (sources, target) marginal of a support as integer weights.

    Point ``k`` is the k-th distinct (sources, target) pair in canonical
    support order (rows differing only in aux are merged) and has
    probability ``weights[k] / denominator``.  Sets of points are int
    bitmasks, bit ``k`` for point ``k``; ``mass`` sums their weights
    exactly.  Per-subset tables are filled on first request and never
    change afterwards.
    """

    __slots__ = ("n_sources", "denominator", "sources", "targets", "weights",
                 "target_weights", "target_masks", "si_tables", "_agree", "_byte_tables")

    def __init__(self, n_sources: int, support):
        merged: dict = {}
        for outcome, p in support:
            key = (outcome.sources, outcome.target)
            merged[key] = merged.get(key, 0) + p
        denominator = math.lcm(*(p.denominator for p in merged.values()))
        self.n_sources = n_sources
        self.denominator = denominator
        self.sources = [s for s, _ in merged]
        self.targets = [t for _, t in merged]
        self.weights = [p.numerator * (denominator // p.denominator) for p in merged.values()]
        self.target_weights: dict = {}     # target value -> weight, first-appearance order
        self.target_masks: dict = {}       # target value -> its points
        for k, (t, w) in enumerate(zip(self.targets, self.weights)):
            self.target_weights[t] = self.target_weights.get(t, 0) + w
            self.target_masks[t] = self.target_masks.get(t, 0) | 1 << k
        self.si_tables: dict = {}          # subset -> specific-information table
        self._agree: dict = {}
        # _byte_tables[j][b]: total weight of the points 8j + i for the bits i of b
        self._byte_tables = []
        for j in range(0, len(self.weights), 8):
            table = [0]
            for w in self.weights[j : j + 8]:
                table += [x + w for x in table]
            self._byte_tables.append(table)

    def projections(self, subset) -> list:
        """Each point's source values on ``subset`` (1-based source indices)."""
        indices = sorted(subset)
        for i in indices:
            if not isinstance(i, int) or not 1 <= i <= self.n_sources:
                raise DistributionError(f"source index {i!r} out of range 1..{self.n_sources}")
        return [tuple(s[i - 1] for i in indices) for s in self.sources]

    def agree_masks(self, subset: frozenset) -> list:
        """Per point, the mask of the points that agree with it on ``subset``."""
        masks = self._agree.get(subset)
        if masks is None:
            projections = self.projections(subset)
            groups: dict = {}
            for k, value in enumerate(projections):
                groups[value] = groups.get(value, 0) | 1 << k
            masks = self._agree[subset] = [groups[value] for value in projections]
        return masks

    def mass(self, mask: int) -> int:
        """Total weight of the points in ``mask``."""
        tables = self._byte_tables
        return sum(map(list.__getitem__, tables, mask.to_bytes(len(tables), "little")))


def _merge_rows(rows) -> list:
    merged: dict = {}
    for outcome, p in rows:
        merged[outcome] = merged.get(outcome, Fraction(0)) + p
    return list(merged.items())
