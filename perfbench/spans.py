"""Per-layer spans, recorded from outside the program.

The layers are the modules of ``src/groupaut``.  ``Tracer.traced()`` wraps the
entry functions of each layer and rebinds every name a ``groupaut`` module
holds for them (``_member`` is bound in descriptors, autgroup and oracle,
for example), then restores the originals.  Nothing under ``src/`` changes.

Spans are kept in memory and aggregated by name: a call count and the
self time, which is the span's duration minus the time of the spans it
caused.  The program is single-threaded, so one stack serves every span.
"""

import contextlib
import statistics
import sys
import time

from groupaut import (autgroup, cli, descriptors, dsl, linalg, matrices,
                      oracle, scalars, witnesses)

# scalar contexts, from the narrowest; an operation is bucketed by the
# widest context of its operands
KINDS = tuple(kind.value for kind in scalars.ContextKind)
_RANK = {kind: i for i, kind in enumerate(scalars.ContextKind)}
SIZES = ("n1", "n2", "n3up")

_CANDIDATE_SPANS = ("oracle.candidate_scalars", "oracle.candidate_matrices")

# Entry points whose span name is fixed: (module, attribute[, span name]).
# The default span name is "<module>.<attribute>".
_PLAIN = [
    (linalg, "rref_basis"), (linalg, "solve_combination"),
    (linalg, "integer_combination"),
    (matrices, "vec_mat_mul"),
    (descriptors, "_member", "descriptors.member"),
    (descriptors, "_rat_line", "descriptors.rat_line"),
    (descriptors, "_real_line", "descriptors.real_line"),
    (descriptors, "normalize"), (descriptors, "hull_closure"),
    (autgroup, "_rat_witness", "autgroup.witness"),
    (autgroup, "_real_witness", "autgroup.witness"),
    (autgroup, "aut_group"), (autgroup, "contains"),
    (oracle, "enumerate_members"), (oracle, "cross_check"),
    (dsl, "parse_descriptor", "dsl.parse"),
    (dsl, "parse_scalar", "dsl.parse"),
    (dsl, "parse_matrix", "dsl.parse"),
    (dsl, "group_to_text", "dsl.print"),
    (dsl, "scalar_to_text", "dsl.print"),
    (dsl, "matrix_to_text", "dsl.print"),
    (dsl, "matrix_to_json", "dsl.print"),
    (cli, "main"),
    (witnesses, "sl_obstruction_witness"),
]


def _fixed(name):
    return lambda args: name


def _matrix_op(op):
    def name_of(args):
        n = args[0].n
        return f"matrices.{op}.{'n1' if n == 1 else 'n2' if n == 2 else 'n3up'}"
    return name_of


def _acts_name(args):
    if isinstance(args[1], matrices.ExactMatrix):
        return "autgroup.acts.matrix"
    return "autgroup.acts.scalar"


def _rebind(original, replacement):
    """Point every name a groupaut module holds for ``original`` at
    ``replacement``; returns the (holder, name, original) triples."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "groupaut" and not mod_name.startswith("groupaut."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


class Tracer:
    """Spans of one traced pass, aggregated by name."""

    def __init__(self):
        # span name -> [calls, self nanoseconds]
        self.stats = {}
        # counts the spans alone cannot give
        self.counts = {"acts_refuted": 0, "ratios_formed": 0,
                       "candidates_kept": 0}
        # [span name, nanoseconds of child spans] of every open span
        self._stack = []

    def _span(self, name_of, fn, on_result=None):
        """Wrap fn; name_of(args) gives the span name of a call."""
        stack, stats = self._stack, self.stats

        def wrapper(*args, **kwargs):
            name = name_of(args)
            frame = [name, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0]
                entry[0] += 1
                entry[1] += dur - frame[1]
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _scalar_op(self, op):
        names = [f"scalars.{op}.{kind}" for kind in KINDS]

        def name_of(args):
            rank = _RANK[args[0].context.kind]
            if len(args) > 1 and isinstance(args[1], scalars.ExactScalar):
                rank = max(rank, _RANK[args[1].context.kind])
            if op == "mul" and self._stack \
                    and self._stack[-1][0] in _CANDIDATE_SPANS:
                self.counts["ratios_formed"] += 1
            return names[rank]
        return name_of

    def _count_refuted(self, cert):
        if not cert.verdict:
            self.counts["acts_refuted"] += 1

    def _count_kept(self, candidates):
        self.counts["candidates_kept"] += len(candidates)

    def _entry_points(self):
        """(owner, attribute, span namer, result hook); an owner is a module
        or the class whose method is wrapped."""
        points = []
        for owner, attr, *span in _PLAIN:
            name = span[0] if span else \
                f"{owner.__name__.split('.')[-1]}.{attr}"
            points.append((owner, attr, _fixed(name), None))
        cls_s, cls_m = scalars.ExactScalar, matrices.ExactMatrix
        points += [
            (cls_s, "__mul__", self._scalar_op("mul"), None),
            (cls_s, "__add__", self._scalar_op("add"), None),
            (cls_s, "invert", self._scalar_op("invert"), None),
            (cls_m, "det", _matrix_op("det"), None),
            (cls_m, "inverse", _matrix_op("inverse"), None),
            (autgroup, "acts_invariantly", _acts_name, self._count_refuted),
            (oracle, "candidate_scalars", _fixed("oracle.candidate_scalars"),
             self._count_kept),
            (oracle, "candidate_matrices",
             _fixed("oracle.candidate_matrices"), self._count_kept),
        ]
        return points

    @contextlib.contextmanager
    def traced(self):
        """Wrap every layer's entry points for the duration of the block."""
        undo = []
        for owner, attr, name_of, on_result in self._entry_points():
            original = vars(owner)[attr]
            wrapper = self._span(name_of, original, on_result)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
            else:
                undo += _rebind(original, wrapper)
        try:
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _timed_spans():
    spans = [f"scalars.{op}.{kind}" for op in ("mul", "add", "invert")
             for kind in KINDS]
    spans += [f"linalg.{fn}" for fn in
              ("rref_basis", "solve_combination", "integer_combination")]
    spans += [f"matrices.{op}.{size}" for op in ("det", "inverse")
              for size in SIZES]
    spans += ["matrices.vec_mat_mul"]
    spans += [f"descriptors.{fn}" for fn in
              ("member", "rat_line", "real_line", "normalize", "hull_closure")]
    spans += ["autgroup.acts.scalar", "autgroup.acts.matrix",
              "autgroup.witness", "autgroup.aut_group", "autgroup.contains"]
    spans += [f"oracle.{fn}" for fn in ("cross_check", "enumerate_members",
                                        "candidate_scalars",
                                        "candidate_matrices")]
    spans += ["dsl.parse", "dsl.print", "cli.main",
              "witnesses.sl_obstruction_witness"]
    return spans


TIMED_SPANS = _timed_spans()
# metric name -> name of the lru_cache it reads (see workloads.CACHES)
CACHE_RATIOS = {
    "matrices.det.cache_hit_ratio": "matrices._det",
    "descriptors.member.cache_hit_ratio": "descriptors._member",
    "descriptors.rat_line.cache_hit_ratio": "descriptors._rat_line",
    "descriptors.normalize.cache_hit_ratio": "descriptors._normalize",
    "descriptors.hull_closure.cache_hit_ratio": "descriptors.hull_closure",
    "autgroup.acts.cache_hit_ratio": "autgroup._acts",
    "autgroup.aut_rules.cache_hit_ratio": "autgroup._aut_rules",
}
RATIOS = ("autgroup.acts.refuted_share", "oracle.candidate_yield",
          "oracle.confirmed_share", "trace.overhead_ratio")
HIGHER_IS_BETTER = ("oracle.candidate_yield", "oracle.confirmed_share")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in TIMED_SPANS:
        specs += [(f"{span}.calls", "count", "lower"),
                  (f"{span}.self_s", "s", "lower")]
    specs += [(name, "ratio", "higher") for name in CACHE_RATIOS]
    specs += [(name, "ratio", "higher" if name in HIGHER_IS_BETTER else "lower")
              for name in RATIOS]
    return specs


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(passes, overhead_ratio):
    """Per-layer metrics of a traced run.

    ``passes`` holds a (Tracer, Outcome) pair for each traced pass over
    identical inputs.  Calls and ratios are those of the last pass; self
    times are the median over the passes.
    """
    last, last_outcome = passes[-1]
    last_stats, last_counts = last.stats, last.counts
    out = {}
    for span in TIMED_SPANS:
        calls = last_stats.get(span, [0, 0])[0]
        self_s = statistics.median(t.stats.get(span, [0, 0])[1] / 1e9
                                   for t, _ in passes)
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (self_s, "s")
    for name, cache in CACHE_RATIOS.items():
        hits, misses = last_outcome.cache_totals.get(cache, (0, 0))
        out[name] = (_share(hits, hits + misses), "ratio")
    acts = sum(last_stats.get(s, [0])[0]
               for s in ("autgroup.acts.scalar", "autgroup.acts.matrix"))
    out["autgroup.acts.refuted_share"] = (
        _share(last_counts["acts_refuted"], acts), "ratio")
    out["oracle.candidate_yield"] = (
        _share(last_counts["candidates_kept"], last_counts["ratios_formed"]),
        "ratio")
    out["oracle.confirmed_share"] = (
        _share(last_outcome.confirmed, last_outcome.candidates), "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
