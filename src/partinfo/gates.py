"""Canonical gate distributions used throughout the test corpus.

Gates are generated programmatically so the probabilities stay exact
rationals.  An optional noise parameter mixes the deterministic target with
a uniform draw over the full target alphabet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .prob import JointDistribution, Outcome, as_fraction


@dataclass(frozen=True)
class GateSpec:
    gate_id: str
    noise: Fraction = Fraction(0)


# gate_id -> (n_sources, target map: source tuple -> target tuple)
_GATES = {
    "xor": (2, lambda s: (s[0] ^ s[1],)),
    "and": (2, lambda s: (s[0] & s[1],)),
    "copy2": (2, lambda s: (s[0], s[1])),
    "xor_source_copy": (3, lambda s: (s[0], s[1], s[2])),
}


def gate_ids() -> tuple:
    return tuple(sorted(_GATES))


def _source_configurations(gate_id: str):
    if gate_id == "xor_source_copy":
        # two fair coins plus their parity as a third source
        return [((s1, s2, s1 ^ s2), Fraction(1, 4)) for s1 in (0, 1) for s2 in (0, 1)]
    return [((s1, s2), Fraction(1, 4)) for s1 in (0, 1) for s2 in (0, 1)]


def make_gate(spec) -> JointDistribution:
    """Build a gate distribution from a :class:`GateSpec` or a gate id."""
    if isinstance(spec, str):
        spec = GateSpec(spec)
    if spec.gate_id not in _GATES:
        raise ValueError(f"unknown gate {spec.gate_id!r}; known: {gate_ids()}")
    noise = as_fraction(spec.noise)
    if not 0 <= noise <= 1:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    n_sources, target_fn = _GATES[spec.gate_id]
    configs = _source_configurations(spec.gate_id)
    arity = len(target_fn(configs[0][0]))
    alphabet = list(itertools.product((0, 1), repeat=arity))
    uniform = Fraction(1, len(alphabet))
    rows = []
    for s, p in configs:
        clean = target_fn(s)
        for t in alphabet:
            weight = noise * uniform + ((1 - noise) if t == clean else 0)
            if weight > 0:
                rows.append((Outcome(s, t), p * weight))
    return JointDistribution(n_sources, arity, rows)
