"""Exact discrete probability core.

Joint distributions over ``n`` source variables, a composite target
``T = (T_1, ..., T_k)``, and an optional auxiliary conditioning variable.
Probabilities are :class:`fractions.Fraction` at every interface; inside,
every computation adds integer weights over one common denominator, and
base-2 logarithms (of gcd-reduced integer ratios) are applied only at the
final step of each Shannon quantity, so the lattice algebra downstream never
accumulates rounding error beyond the log evaluation itself.  A table keeps
one slot for state that :mod:`partinfo.measures` derives from it; this
module never reads it.  A table built by :meth:`JointDistribution.reencode`
also records where its rows came from, so that the measures can derive
that state from the table it relabels.

A row is one flat value tuple (sources, target, then aux if present);
:class:`Outcome` exists only where the API takes or returns rows.  Each
*selector* names one position of the row:

* ``("source", i)`` -- source ``S_i`` (1-based),
* ``("target", j)`` -- target component ``T_j`` (1-based),
* ``"aux"``          -- the auxiliary variable.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Symbol = Union[int, str]
Selector = Union[tuple, str]


MAX_DIGITS = 4300   # Python's default int <-> str limit; bounds decimal strings
MAX_QUOTE = 200     # characters of an offending input value quoted in an error


def _clip(text: str) -> str:
    """``text`` cut to ``MAX_QUOTE`` characters, with an ellipsis if cut."""
    return text if len(text) <= MAX_QUOTE else text[:MAX_QUOTE] + "..."


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
    if isinstance(value, str):
        num, slash, den = value.partition("/")   # "digits/digits" parses without Fraction(str)
        if (slash and value.isascii() and num.isdigit() and den.strip("0").isdigit()
                and len(value) <= MAX_DIGITS):
            return Fraction(int(num), int(den))
        mantissa, _, exponent = value.replace("_", "").lower().partition("e")
        exponent = exponent.strip().lstrip("+-").lstrip("0")[:5]   # any 5 digits pass the limit
        digits = sum(c.isdecimal() for c in mantissa) + (int(exponent) if exponent.isdecimal() else 0)
        if digits > MAX_DIGITS:
            raise DistributionError(f"probability needs more than {MAX_DIGITS} digits: {value[:40]!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DistributionError(f"cannot parse probability {_clip(repr(value))}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DistributionError(f"not a probability: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(str(value))
    raise DistributionError(f"cannot parse probability {_clip(repr(value))}")


def log2_ratio(a: int, b: int) -> float:
    """log2(a / b) for positive integers, as the difference of the logs of
    the reduced numerator and denominator (so equal ratios give equal bits)."""
    g = math.gcd(a, b)
    return math.log2(a // g) - math.log2(b // g)


def mi_from_weights(joint: Mapping, w_left: Mapping, w_right: Mapping, denominator: int) -> float:
    """I(A;B) in bits from the integer weights over ``denominator`` of each (a, b) pair,
    each a and each b, with the terms added in ``joint``'s order."""
    total = 0.0
    for (a, b), w in joint.items():
        total += w / denominator * log2_ratio(w * denominator, w_left[a] * w_right[b])
    return total


def _check_injective(name: str, table: Mapping, support) -> list:
    """The images of ``support`` under ``table``, which must map it one-to-one."""
    images = []
    for value in support:
        if value not in table:
            raise EncodingError(f"{name} is missing support value {value!r}")
        images.append(table[value])
    if len(set(images)) != len(images):
        raise EncodingError(f"{name} is not invertible on the support")
    return images


def _symbol_key(symbol) -> tuple:
    # total order over possibly mixed int/str alphabets
    return (type(symbol).__name__, str(symbol))


def _canonical_order(rows: list) -> list:
    """The indices of ``rows`` (value tuples of one length, with weights)
    sorted by the :func:`_symbol_key` of each value, position by position;
    stable.

    Each row is sorted by the tuple of its values' ranks in key order, equal
    keys sharing a rank, and the key is computed once per distinct symbol.
    When every value has one type, the values themselves are ranked;
    otherwise each is ranked as its ``(type, value)`` pair, so ``True`` and
    ``1`` stay apart.
    """
    columns = list(zip(*[v for v, _ in rows]))
    if len({type(value) for column in columns for value in column}) > 1:
        columns = [list(zip(map(type, column), column)) for column in columns]
        key = lambda symbol: _symbol_key(symbol[1])
    else:
        key = _symbol_key
    rank, previous = {}, None
    for symbol in sorted(set().union(*columns), key=key):
        symbol_key = key(symbol)
        if symbol_key != previous:
            r, previous = len(rank), symbol_key
        rank[symbol] = r
    ranked = list(zip(*[map(rank.__getitem__, column) for column in columns]))
    return sorted(range(len(rows)), key=ranked.__getitem__)


@dataclass(frozen=True)
class Outcome:
    """One row of a joint distribution table, as the API takes and returns it.

    ``sources`` has one symbol per source variable, ``target`` one symbol per
    target component, and ``aux`` optionally carries the auxiliary variable.
    """

    sources: tuple
    target: tuple
    aux: Symbol | None = None


def _outcome(values: tuple, n_sources: int, target_arity: int) -> Outcome:
    """The :class:`Outcome` of a flat row."""
    end = n_sources + target_arity
    aux = values[end] if len(values) > end else None
    return Outcome(values[:n_sources], values[n_sources:end], aux)


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


class _Weights(NamedTuple):
    """(value tuple, integer weight) rows over one denominator: how a
    distribution is handed its table once its rows are checked.  When the
    rows relabel the support rows of a table one for one and in order,
    ``relabels`` is that table."""

    rows: list
    denominator: int
    relabels: "JointDistribution | None" = None


def _api_parts(row) -> tuple:
    """The parts of an API row (:class:`Outcome` or (sources, target[, aux]), p)."""
    outcome, prob = row
    if not isinstance(outcome, Outcome):
        outcome = Outcome(tuple(outcome[0]), tuple(outcome[1]), *outcome[2:3])
    return outcome.sources, outcome.target, outcome.aux, as_fraction(prob)


def _weighted(n_sources: int, target_arity: int, parts: Iterable) -> _Weights:
    """``(sources, target, aux or None, Fraction p)`` rows, checked in turn for
    their arity and for p in [0, 1], as flat rows over their common denominator."""
    if n_sources < 1:
        raise DistributionError("need at least one source variable")
    if target_arity < 0:
        raise DistributionError("target arity cannot be negative")
    rows = []
    for sources, target, aux, p in parts:
        if len(sources) != n_sources or len(target) != target_arity:
            raise DistributionError(f"outcome {_clip(repr(Outcome(sources, target, aux)))} does not "
                                    f"have {n_sources} source and {target_arity} target values")
        if not 0 <= p.numerator <= p.denominator:
            raise DistributionError(f"probability {_clip(str(p))} outside [0, 1]")
        rows.append(((*sources, *target) if aux is None else (*sources, *target, aux), p))
    denominator = math.lcm(*(p.denominator for _, p in rows))
    return _Weights([(v, p.numerator * (denominator // p.denominator)) for v, p in rows], denominator)


class JointDistribution:
    """Finite joint distribution of sources, composite target, optional aux.

    Invariants enforced at construction: probabilities are exact rationals in
    [0, 1] summing to exactly 1, outcomes are unique, and the positive-mass
    support is nonempty.  Zero-probability rows may be present but are
    ignored by every functional.  Instances are immutable; all operations
    return new distributions.

    The table is held once, as integer weights over the reduced common
    denominator ``D``: row ``(values, w)`` has probability ``w / D``, where
    ``values`` is the flat tuple of the sources, the target and the aux
    value.  The weights sum to ``D`` with no common factor, so equal
    distributions hold equal rows.
    """

    __slots__ = ("n_sources", "target_arity", "_rows", "_weights", "_denominator",
                 "_targets", "_digest", "_hash", "_measure_kernel", "_origin")

    def __init__(self, n_sources: int, target_arity: int, outcomes: Iterable):
        if not isinstance(outcomes, _Weights):
            outcomes = _weighted(n_sources, target_arity, map(_api_parts, outcomes))
        rows, denominator, relabels = outcomes
        if not rows:
            raise DistributionError("empty outcome table")
        if len({len(values) for values, _ in rows}) > 1:
            raise DistributionError("auxiliary value must be present on all outcomes or none")
        # every row has one arity, so this orders sources, then target, then aux
        order = _canonical_order(rows)
        rows = [rows[i] for i in order]
        values, weights = zip(*rows)
        if len(set(values)) < len(rows):
            counts = Counter(values)
            twice = _outcome(next(v for v in values if counts[v] > 1), n_sources, target_arity)
            raise DistributionError(f"duplicate outcome {_clip(repr(twice))}")
        total = sum(weights)
        if total != denominator:    # as denominator >= 1, this also keeps the support nonempty
            raise DistributionError(
                f"probabilities sum to {Fraction(total, denominator)}, expected exactly 1"
            )
        g = math.gcd(*weights)
        if g > 1:
            weights = [w // g for w in weights]
            rows = list(zip(values, weights))
        self.n_sources = n_sources
        self.target_arity = target_arity
        self._rows = tuple(rows)
        self._weights = self._rows if all(weights) else tuple(row for row in rows if row[1])
        self._denominator = denominator // g
        self._targets = None
        self._digest = None
        self._hash = None
        self._measure_kernel = None     # the measures' per-table state, built by them on first use
        # for a relabelling, the first table of its chain of relabellings and
        # each row's index in that table's support (a relabelling's rows are
        # all positive, so its own support rows are in this order too)
        self._origin = None
        if relabels is not None:
            first, index = relabels._origin or (relabels, range(len(rows)))
            self._origin = first, tuple(map(index.__getitem__, order))

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def outcomes(self) -> tuple:
        """All table rows, including explicit zero-probability ones."""
        return self._api_rows(self._rows)

    @property
    def support(self) -> tuple:
        """Positive-probability rows in canonical order."""
        return self._api_rows(self._weights)

    def _api_rows(self, rows) -> tuple:
        n, k, d = self.n_sources, self.target_arity, self._denominator
        return tuple((_outcome(values, n, k), Fraction(w, d)) for values, w in rows)

    @property
    def has_aux(self) -> bool:
        return len(self._weights[0][0]) > self.n_sources + self.target_arity

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        # the table never changes, so its rows are hashed once per instance
        if self._hash is None:
            self._hash = hash(self._identity())
        return self._hash

    def _identity(self) -> tuple:
        return (self.n_sources, self.target_arity, self._denominator, self._weights)

    def __repr__(self) -> str:
        return (
            f"JointDistribution(n_sources={self.n_sources}, "
            f"target_arity={self.target_arity}, support={len(self._weights)} outcomes)"
        )

    # ------------------------------------------------------------------
    # marginals

    def _check_indices(self, kind: str, indices) -> None:
        bound = self.n_sources if kind == "source" else self.target_arity
        for i in indices:
            if not 1 <= i <= bound:
                name = "source index" if kind == "source" else "target component"
                raise DistributionError(f"{name} {i} out of range 1..{bound}")

    def _position(self, selector: Selector) -> int:
        """Where the selected variable's value sits in a row."""
        kind, *index = _normalize_selector(selector)
        if kind == "aux":
            if not self.has_aux:
                raise DistributionError("distribution has no auxiliary variable")
            return self.n_sources + self.target_arity
        self._check_indices(kind, index)
        return index[0] - 1 + (self.n_sources if kind == "target" else 0)

    def _key(self, selectors: Sequence[Selector]):
        """A function from a row to the tuple of the selected values."""
        at = [self._position(s) for s in selectors]
        start = at[0] if at else 0
        if at == list(range(start, start + len(at))):   # a slice keeps one value in a tuple
            return itemgetter(slice(start, start + len(at)))
        return itemgetter(*at)

    def _marginal_weights(self, selectors: Sequence[Selector]) -> dict:
        """Value tuple -> integer weight over ``D``, in canonical support order."""
        key = self._key(selectors)
        out: dict = {}
        for values, w in self._weights:
            k = key(values)
            out[k] = out.get(k, 0) + w
        return out

    def marginal(self, selectors: Sequence[Selector]) -> dict:
        """Joint marginal over the selected variables.

        Returns a mapping from value tuples to exact probabilities, in the
        canonical support order (so downstream float sums are deterministic).
        """
        d = self._denominator
        return {k: Fraction(w, d) for k, w in self._marginal_weights(selectors).items()}

    def marginal_support(self, selectors: Sequence[Selector]) -> tuple:
        """The value tuples of :meth:`marginal`, without their probabilities."""
        return tuple(dict.fromkeys(map(self._key(selectors), (v for v, _ in self._weights))))

    def _target_keys(self) -> tuple:
        """The distinct target tuples in the order they first appear in the
        support, read on first use and kept in the table."""
        if self._targets is None:
            n, end = self.n_sources, self.n_sources + self.target_arity
            self._targets = tuple(dict.fromkeys(values[n:end] for values, _ in self._weights))
        return self._targets

    def source_marginal(self, indices: Iterable[int]) -> dict:
        return self.marginal([("source", i) for i in sorted(indices)])

    def target_marginal(self) -> dict:
        return self.marginal([("target", j) for j in range(1, self.target_arity + 1)])

    def variable_marginal(self, selector: Selector) -> dict:
        return {key[0]: p for key, p in self.marginal([selector]).items()}

    def variable_support(self, selector: Selector) -> tuple:
        return tuple(key[0] for key in self.marginal_support([selector]))

    # ------------------------------------------------------------------
    # Shannon quantities (bits); a probability w / D enters as the float w / D

    def entropy(self, selectors: Sequence[Selector]) -> float:
        """Shannon entropy of the joint marginal over ``selectors``; a
        :func:`math.fsum` of its terms, so the same float in any term order."""
        d = self._denominator
        return -math.fsum(w / d * log2_ratio(w, d) for w in self._marginal_weights(selectors).values())

    def mutual_information(self, left: Sequence[Selector], right: Sequence[Selector]) -> float:
        """I(left; right) in bits, from exact joint/marginal ratios; both
        marginals are integer sums over the one joint marginal."""
        if not left or not right:
            return 0.0
        k = len(left)
        joint, w_left, w_right = {}, {}, {}
        for key, w in self._marginal_weights(list(left) + list(right)).items():
            a, b = joint_key = key[:k], key[k:]
            joint[joint_key] = w
            w_left[a] = w_left.get(a, 0) + w
            w_right[b] = w_right.get(b, 0) + w
        return mi_from_weights(joint, w_left, w_right, self._denominator)

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
    # transformations: each child gets its table as integer weights

    def condition_on(self, selector: Selector, value) -> "JointDistribution":
        """Condition on ``variable == value`` and renormalize.

        Conditioning on a target component removes that component from the
        target tuple; conditioning on the aux variable removes it; a source
        stays in place as a constant so the source arity is preserved.
        """
        sel = _normalize_selector(selector)
        at = self._position(sel)
        kept = [(v, w) for v, w in self._weights if v[at] == value]
        mass = sum(w for _, w in kept)
        if mass == 0:
            raise ConditioningError(f"conditioning on null event {sel!r} == {value!r}")
        if sel[0] != "source":
            # the kept rows all share the dropped value, so none merge
            kept = [(v[:at] + v[at + 1:], w) for v, w in kept]
        arity = self.target_arity - (sel[0] == "target")
        return JointDistribution(self.n_sources, arity, _Weights(kept, mass))

    def _project(self, target: list) -> "JointDistribution":
        """The distribution whose target is the values of the ``target``
        selectors, sources and aux kept, equal rows merged."""
        sources = [("source", i) for i in range(1, self.n_sources + 1)]
        rows = self._marginal_weights(sources + target + (["aux"] if self.has_aux else []))
        weights = _Weights(list(rows.items()), self._denominator)
        return JointDistribution(self.n_sources, len(target), weights)

    def restrict_target(self, components: Sequence[int]) -> "JointDistribution":
        """Marginalize the target down to the given components (1-based, in order)."""
        return self._project([("target", j) for j in components])

    def retarget_to_sources(self, indices: Sequence[int]) -> "JointDistribution":
        """Replace the target by a copy of the selected sources (1-based)."""
        return self._project([("source", i) for i in indices])

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
        support.  Each map, and each symbol table, may also be given as a
        sequence of (key, image) pairs, which is hashable.  The table is
        relabelled column by column: each relabelled source column is mapped
        through its symbol table, and the target columns through the images
        of the target tuples.  The new table records this one (or the first
        table this one relabels) and its rows' order in that table's
        support.
        """
        n, end = self.n_sources, self.n_sources + self.target_arity
        source_maps = {i: dict(table) for i, table in dict(source_maps or {}).items()}
        values, weights = zip(*self._weights)
        columns = list(zip(*values))
        for i, table in source_maps.items():
            self._check_indices("source", (i,))
            _check_injective(f"source {i} table", table, dict.fromkeys(columns[i - 1]))
            columns[i - 1] = map(table.__getitem__, columns[i - 1])
        new_arity = self.target_arity
        if target_map is not None:
            targets = self._target_keys()
            target_map = dict(target_map)
            target_map = {t: tuple(target_map[t]) for t in targets if t in target_map}
            arities = {len(image) for image in _check_injective("target table", target_map, targets)}
            if len(arities) != 1:
                raise EncodingError("target table maps to tuples of mixed arity")
            new_arity = arities.pop()
            # the images' columns; an arity-0 image leaves none
            columns[n:end] = zip(*map(target_map.__getitem__, map(itemgetter(slice(n, end)), values)))
        rows = list(zip(zip(*columns), weights))
        return JointDistribution(n, new_arity, _Weights(rows, self._denominator, self))

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        n, end = self.n_sources, self.n_sources + self.target_arity
        outcomes = []
        d = self._denominator
        for values, w in self._weights:
            g = math.gcd(w, d)
            entry = {"s": list(values[:n]), "t": list(values[n:end]), "p": f"{w // g}/{d // g}"}
            if len(values) > end:
                entry["z"] = values[end]
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
                f"n_sources and target_arity must be integers: "
                f"{_clip(repr(n_sources))}, {_clip(repr(target_arity))}"
            )
        parts = []
        for entry in entries:
            try:
                sources, target = entry["s"], entry["t"]
                if type(sources) is not list or type(target) is not list:
                    raise DistributionError(
                        f"outcome fields s and t must be arrays: {_clip(repr(entry))}"
                    )
                aux = entry.get("z")
                p = as_fraction(entry["p"])
            except (KeyError, TypeError) as exc:
                raise DistributionError(f"malformed outcome entry {_clip(repr(entry))}") from exc
            if not {int, str}.issuperset(map(type, sources + target + ([] if aux is None else [aux]))):
                raise DistributionError(
                    f"outcome symbols must be ints or strings: {_clip(repr(entry))}"
                )
            parts.append((tuple(sources), tuple(target), aux, p))
        return cls(n_sources, target_arity, _weighted(n_sources, target_arity, parts))

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "JointDistribution":
        try:
            data = json.loads(Path(path).read_text())
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DistributionError(f"cannot parse {path}: {exc}") from exc
        return cls.from_json_dict(data)

    @property
    def digest(self) -> str:
        """Stable hash of the canonical support table."""
        if self._digest is None:
            import hashlib      # loaded only by a call that reads a digest

            payload = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
            self._digest = hashlib.sha256(payload.encode()).hexdigest()
        return self._digest

