"""Tracing shim for the traced benchmark run.

Wraps public functions and methods of the ``partinfo`` modules from the
outside, without touching the package.  Each call becomes a span (name,
start, end, parent).  Per name the shim aggregates the call count, the
number of calls that raised, the inclusive time and the self time (span
minus the time its child spans cover, the children's own bookkeeping
included), so hot calls such as ``moebius`` cost a few counters rather than
a stored record.  Only names not marked hot keep their individual spans,
which are written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

from workloads import PROPERTY_IDS


class _Frame:
    __slots__ = ("span_id", "covered", "overhead")

    def __init__(self, span_id):
        self.span_id = span_id
        self.covered = 0.0     # wrapper time of direct children
        self.overhead = 0.0    # tracer bookkeeping inside this span


@dataclasses.dataclass
class Stat:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0       # inclusive, minus tracer bookkeeping
    self_s: float = 0.0


class Tracer:
    """Span recorder.  Install with :class:`traced`; read ``stats``."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.distinct = defaultdict(set)
        self.spans = []            # (id, parent id, name, start, end) of non-hot spans
        self.lattices = []         # lattices constructed while tracing
        self._stack = [_Frame(None)]
        self._next_id = 0

    def wrap(self, fn, name, hot=False, key=None, on_return=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's ``(args, kwargs)``;
        ``key`` maps the positional arguments to a value whose distinct
        occurrences are counted under ``name``; ``on_return`` receives the
        positional arguments after the call.
        """
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            t0 = perf_counter()
            frame = _Frame(None)
            if not hot:
                self._next_id += 1
                frame.span_id = self._next_id
            stack.append(frame)
            raised = False
            t_in = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                stat = stats[label]
                stat.calls += 1
                stat.raised += raised
                duration = t1 - t_in
                stat.self_s += duration - frame.covered
                stat.total_s += duration - frame.overhead
                if key is not None:
                    self.distinct[label].add(key(args))
                if on_return is not None:
                    on_return(args)
                parent = stack[-1]
                if not hot:
                    parent_id = next(
                        (f.span_id for f in reversed(stack) if f.span_id is not None), None
                    )
                    self.spans.append((frame.span_id, parent_id, label, t_in, t1))
                t2 = perf_counter()
                parent.covered += t2 - t0
                parent.overhead += frame.overhead + (t_in - t0) + (t2 - t1)

        return traced_call

    def counts(self) -> dict:
        """Everything that must repeat exactly between two identical runs."""
        out = {}
        for label, stat in sorted(self.stats.items()):
            out[label + ".calls"] = stat.calls
            out[label + ".raised"] = stat.raised
        for label, seen in sorted(self.distinct.items()):
            out[label + ".distinct"] = len(seen)
        return out

    def write(self, path, meta: dict) -> None:
        payload = {
            "meta": meta,
            "stats": {k: dataclasses.asdict(v) for k, v in sorted(self.stats.items())},
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }
        path.write_text(json.dumps(payload) + "\n")


def _distribution_subset(args):
    d, subset = args[0], args[1]
    return d, frozenset(subset)


def _distribution_measure(args):
    return args[0], args[1].id


def _property_name(args, kwargs):
    return "properties." + (args[0] if args else kwargs["property_id"])


# (module, attribute, span name, hot, distinct key)
_FUNCTIONS = (
    ("partinfo.lattice", "enumerate_antichains", "lattice.enumerate", False, None),
    ("partinfo.engine", "atoms_from_redundancy", "engine.decompose", False, _distribution_measure),
    ("partinfo.engine", "atoms_from_values", "engine.invert", False, None),
    ("partinfo.engine", "redundancy_from_atoms", "engine.roundtrip", False, None),
    ("partinfo.engine", "consistency_check", "engine.consistency", False, None),
    ("partinfo.engine", "conditional_atoms", "engine.conditional", False, None),
    ("partinfo.measures", "specific_information", "measures.si", True, _distribution_subset),
    ("partinfo.properties", "run_property", _property_name, False, None),
    ("partinfo.properties", "theorem_witness", "properties.witness", False, None),
    ("partinfo.properties", "property_matrix", "properties.matrix", False, None),
    ("partinfo.cli", "main", "cli.main", False, None),
)

# (module, class, method, span name, hot)
_METHODS = (
    ("partinfo.lattice", "RedundancyLattice", "moebius", "lattice.moebius", True),
    ("partinfo.lattice", "RedundancyLattice", "down_set", "lattice.down_set", True),
    ("partinfo.lattice", "RedundancyLattice", "covers", "lattice.covers", False),
    ("partinfo.lattice", "RedundancyLattice", "to_json_dict", "lattice.to_json_dict", False),
    ("partinfo.lattice", "RedundancyLattice", "to_dot", "lattice.to_dot", False),
    ("partinfo.measures", "RedundancyMeasure", "evaluate", "measures.evaluate", True),
    ("partinfo.prob", "JointDistribution", "__init__", "prob.construct", True),
    ("partinfo.prob", "JointDistribution", "marginal", "prob.marginal", True),
    ("partinfo.prob", "JointDistribution", "mutual_information", "prob.mi", True),
    ("partinfo.prob", "JointDistribution", "load", "prob.load", False),
    ("partinfo.prob", "JointDistribution", "condition_on", "prob.transform", True),
    ("partinfo.prob", "JointDistribution", "reencode", "prob.transform", True),
    ("partinfo.prob", "JointDistribution", "retarget_to_sources", "prob.transform", True),
    ("partinfo.prob", "JointDistribution", "restrict_target", "prob.transform", True),
)

_MEASURES = (("imin", "measures.imin"), ("isx", "measures.isx"))


class traced:
    """Context manager that installs a :class:`Tracer` and removes it again.

    A wrapped free function is replaced in every loaded ``partinfo``
    module namespace that holds it, because ``engine`` names are imported
    again by ``properties``, ``cli`` and the package itself.  The two
    shipped measures are wrapped by re-registering them.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self) -> Tracer:
        from partinfo import lattice, measures

        t = self.tracer
        for mod_name, *_ in _FUNCTIONS:
            importlib.import_module(mod_name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "partinfo" or name.startswith("partinfo.")]
        for mod_name, attr, span, hot, key in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = t.wrap(original, span, hot=hot, key=key)
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is original:
                        self._set(mod, k, wrapped)
        for mod_name, cls_name, meth, span, hot in _METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(t.wrap(original.__func__, span, hot=hot))
            else:
                wrapped = t.wrap(original, span, hot=hot)
            self._set(cls, meth, wrapped)
        build = lattice.RedundancyLattice.__init__
        self._set(lattice.RedundancyLattice, "__init__",
                  t.wrap(build, "lattice.build", on_return=lambda a: t.lattices.append(a[0])))
        for measure_id, span in _MEASURES:
            original = measures.get_measure(measure_id)
            measures.register_measure(
                dataclasses.replace(original, fn=t.wrap(original.fn, span, hot=True)),
                replace=True,
            )
            self._undo.append(lambda m=original: measures.register_measure(m, replace=True))
        return t

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr]     # the raw descriptor, for classes
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracers, ops: int) -> dict:
    """Per-layer metrics per op, from one or more identical traced passes of
    ``ops`` ops each.  Counts come from the first pass (the passes must
    agree); times are averaged over the passes.  ``_s`` is self time, except
    ``engine.decompose_total_s``, which is inclusive."""
    n = len(tracers)
    empty = Stat()

    def count(*labels):
        return sum(tracers[0].stats.get(lb, empty).calls for lb in labels) / ops

    def self_s(*labels):
        return sum(t.stats.get(lb, empty).self_s for t in tracers for lb in labels) / (n * ops)

    def distinct(label):
        return len(tracers[0].distinct.get(label, ())) / ops

    built = tracers[0].lattices
    m = {
        "measures.evaluations": (count("measures.evaluate"), "count"),
        "measures.evaluate_s": (self_s("measures.evaluate"), "s"),
        "measures.imin_s": (self_s("measures.imin"), "s"),
        "measures.isx_s": (self_s("measures.isx"), "s"),
        "measures.si_calls": (count("measures.si"), "count"),
        "measures.si_s": (self_s("measures.si"), "s"),
        "measures.si_useful_ratio": (_ratio(distinct("measures.si"), count("measures.si")), "ratio"),
        "prob.marginal_calls": (count("prob.marginal"), "count"),
        "prob.marginal_s": (self_s("prob.marginal"), "s"),
        "prob.mi_s": (self_s("prob.mi"), "s"),
        "prob.load_s": (self_s("prob.load"), "s"),
        "prob.distributions_built": (count("prob.construct"), "count"),
        "prob.construct_s": (self_s("prob.construct"), "s"),
        "prob.transforms": (count("prob.transform"), "count"),
        "prob.transform_s": (self_s("prob.transform"), "s"),
        "lattice.builds": (count("lattice.build"), "count"),
        "lattice.build_s": (self_s("lattice.build"), "s"),
        "lattice.enumerate_s": (self_s("lattice.enumerate"), "s"),
        "lattice.moebius_calls": (count("lattice.moebius"), "count"),
        "lattice.moebius_s": (self_s("lattice.moebius"), "s"),
        "lattice.down_set_calls": (count("lattice.down_set"), "count"),
        "lattice.down_set_s": (self_s("lattice.down_set"), "s"),
        "lattice.covers_s": (self_s("lattice.covers"), "s"),
        "lattice.export_s": (self_s("lattice.to_json_dict", "lattice.to_dot"), "s"),
        "lattice.nodes": (sum(len(b) for b in built) / ops, "count"),
        "lattice.comparable_pairs": (
            sum(len(b.down_set(x)) for b in built for x in b.nodes) / ops, "count"),
        "engine.invert_s": (self_s("engine.invert"), "s"),
        "engine.roundtrip_s": (self_s("engine.roundtrip"), "s"),
        "engine.decompositions": (count("engine.decompose"), "count"),
        "engine.decompose_total_s": (
            sum(t.stats.get("engine.decompose", empty).total_s for t in tracers) / (n * ops), "s"),
        "engine.decompose_useful_ratio": (
            _ratio(distinct("engine.decompose"), count("engine.decompose")), "ratio"),
        "engine.conditional_s": (self_s("engine.conditional"), "s"),
        "engine.consistency_s": (self_s("engine.consistency"), "s"),
    }
    for pid in PROPERTY_IDS:
        m[f"properties.{pid}_s"] = (self_s(f"properties.{pid}"), "s")
    witness = tracers[0].stats.get("properties.witness", empty)
    m["properties.witness_calls"] = ((witness.calls - witness.raised) / ops, "count")
    m["properties.witness_s"] = (self_s("properties.witness"), "s")
    m["properties.matrix_s"] = (self_s("properties.matrix"), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    return m
