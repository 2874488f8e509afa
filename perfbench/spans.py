"""In-memory spans around the public functions of each ppclab layer.

The benchmark records spans from its own code: :meth:`Tracer.install`
replaces each listed function with a timing wrapper under every name a
caller looks it up by (the defining module, any ppclab module that imported
it, and class attributes including aliases such as ``IntervalSet.__or__``).
:meth:`Tracer.uninstall` puts the originals back.  Nothing under ``src/``
changes.

A span is ``[name, start, end, parent, counters]``; ``parent`` is the index
of the enclosing span or -1.  Times leave out the wrappers' own bookkeeping,
which shows only as the traced run's overhead.  A layer's self time is the
summed duration of its spans minus the time covered by their direct child
spans.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

from ppclab.sequences import as_elements


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_energy(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _count_pair_correlation(args, kwargs, result):
    seq, alpha, n = args[0], args[1], args[2]
    return {
        "points": n,
        "q_bits": alpha.denominator.bit_length(),
        # sequences are strictly increasing, so the prefix maximum is its last element
        "elem_bits": int(as_elements(seq)[n - 1]).bit_length(),
    }


def _count_union(args, kwargs, result):
    return {"pieces_in": len(args[0]) + len(args[1]), "components_out": len(result)}


def _count_built(args, kwargs, result):
    elements = result.elements
    return {
        "elements": len(elements),
        "bits": sum(int(x).bit_length() for x in elements),
    }


def _count_finish(args, kwargs, result):
    total = 0
    for path in args[0].outputs:
        for p in (path, path + ".manifest.json"):
            if os.path.exists(p):
                total += os.path.getsize(p)
    return {"output_bytes": total}


# (module, owner attribute or None, function name, span name, counter): the
# layer functions the workloads reach.  The owner is a class inside the
# module when the function is a method.
LAYER_FUNCTIONS = [
    ("ppclab.sequences", None, "build_blocks", "sequences.build_blocks", _count_built),
    ("ppclab.sequences", None, "classic", "sequences.classic", _count_built),
    ("ppclab.sequences", None, "read_sequence", "sequences.read_sequence", None),
    ("ppclab.sequences", None, "rebuild_from_meta", "sequences.rebuild_from_meta", None),
    ("ppclab.sequences", None, "write_sequence", "sequences.write_sequence", None),
    # the CLI's file-or-inline loader holds the element check of a loaded file
    ("ppclab.cli", None, "_load_sequence", "sequences.load", None),
    ("ppclab.energy", None, "additive_energy", "energy.additive_energy", _count_energy),
    ("ppclab.energy", None, "energy_scaling", "energy.energy_scaling", None),
    ("ppclab.paircorr", None, "pair_correlation", "paircorr.pair_correlation",
     _count_pair_correlation),
    ("ppclab.paircorr", None, "divergence_probe", "paircorr.divergence_probe", None),
    ("ppclab.paircorr", None, "monte_carlo_ppc", "paircorr.monte_carlo_ppc", None),
    ("ppclab.paircorr", None, "exceptional_alpha_candidates",
     "paircorr.exceptional_alpha_candidates", None),
    ("ppclab.paircorr", None, "rank_of_denominator", "paircorr.rank_of_denominator", None),
    ("ppclab.paircorr", None, "perturbed_alpha", "paircorr.perturbed_alpha", None),
    ("ppclab.paircorr", None, "targeting_eta", "paircorr.targeting_eta", None),
    ("ppclab.paircorr", "RegularSystemParams", "denominator_range",
     "paircorr.denominator_range", None),
    ("ppclab.intervals", None, "bohr_set", "intervals.bohr_set", None),
    ("ppclab.intervals", None, "small_denominator_set", "intervals.small_denominator_set", None),
    ("ppclab.intervals", None, "borel_cantelli_ratio", "intervals.borel_cantelli_ratio", None),
    ("ppclab.intervals", "IntervalSet", "union", "intervals.union", _count_union),
    ("ppclab.intervals", "IntervalSet", "intersect", "intervals.intersect", None),
    ("ppclab.growth", "GrowthFunction", "__call__", "growth.f", None),
    ("ppclab.growth", "ThetaFunction", "__call__", "growth.theta", None),
    ("ppclab.growth", None, "psi", "growth.psi", None),
    ("ppclab.growth", None, "parse_growth", "growth.parse_growth", None),
    ("ppclab.growth", None, "parse_theta", "growth.parse_theta", None),
    ("ppclab.cli", None, "main", "cli.main", None),
    ("ppclab.cli", "RunContext", "finish", "cli.finish", _count_finish),
]

LAYERS = ("sequences", "energy", "paircorr", "intervals", "growth", "cli")


class Tracer:
    """Records nested spans while installed; single-threaded use only."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # span times are perf_counter() minus this offset, which grows by the
        # wrappers' own bookkeeping, so counting never lands in a parent span
        self._offset = time.perf_counter()

    def _wrapper(self, orig, name: str, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        rss_name = name.startswith("energy.")

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            entered = clock()
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            rss0 = _rss_mb() if rss_name else 0.0
            start = clock()
            self._offset += start - entered
            span[1] = start - self._offset
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[2] = end - self._offset
            counters = {}
            if counter:
                try:
                    counters = counter(args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    counters = {"counter_error": repr(exc)}
            if rss_name:
                counters["rss_growth_mb"] = _rss_mb() - rss0
            span[4] = counters or None
            self._offset += clock() - end
            return result

        return wrapper

    def install(self) -> None:
        import ppclab.cli  # noqa: F401  (loads every layer module)

        for module_name, owner_name, attr, name, counter in LAYER_FUNCTIONS:
            module = sys.modules[module_name]
            owner = getattr(module, owner_name) if owner_name else module
            orig = vars(owner)[attr]
            wrapper = self._wrapper(orig, name, counter)
            namespaces = [owner] + [
                m for key, m in list(sys.modules.items())
                if m is not None and (key == "ppclab" or key.startswith("ppclab."))
            ]
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, key, orig))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._restore):
            setattr(ns, key, orig)
        self._restore.clear()

    def write(self, path: str) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "counters": c}
            for n, s, e, p, c in self.spans
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of the benchmark, summed over all spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        m: dict[str, float] = {
            "sequences.build_s": 0.0, "sequences.load_s": 0.0,
            "sequences.elements": 0, "sequences.element_kbits": 0.0,
            "energy.calls": 0, "energy.pairs": 0, "energy.rss_growth_mb": 0.0,
            "paircorr.calls": 0, "paircorr.points": 0, "paircorr.q_bits_max": 0,
            "paircorr.elem_bits_max": 0, "paircorr.candidates_s": 0.0,
            "intervals.union_calls": 0, "intervals.pieces_in": 0,
            "intervals.components_out": 0, "intervals.bc_ratio_s": 0.0,
            "growth.calls": 0, "cli.output_bytes": 0,
        }
        build_names = ("sequences.build_blocks", "sequences.classic")
        for i, (name, start, end, parent, c) in enumerate(spans):
            c = c or {}
            dur = end - start
            layer = name.partition(".")[0]
            self_s[layer] += dur - covered[i]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name in build_names:
                m["sequences.elements"] += c.get("elements", 0)
                m["sequences.element_kbits"] += c.get("bits", 0) / 1000.0
                if parent_name == "sequences.load":
                    # an inline family built by the loader is a build, not a load
                    m["sequences.load_s"] -= dur
                if parent_name != "sequences.rebuild_from_meta":
                    m["sequences.build_s"] += dur
            elif name == "sequences.load":
                m["sequences.load_s"] += dur
            elif name == "energy.additive_energy":
                m["energy.calls"] += 1
                m["energy.pairs"] += c.get("pairs", 0)
            elif name == "paircorr.pair_correlation":
                m["paircorr.calls"] += 1
                m["paircorr.points"] += c.get("points", 0)
                m["paircorr.q_bits_max"] = max(m["paircorr.q_bits_max"], c.get("q_bits", 0))
                m["paircorr.elem_bits_max"] = max(
                    m["paircorr.elem_bits_max"], c.get("elem_bits", 0)
                )
            elif name == "paircorr.exceptional_alpha_candidates":
                m["paircorr.candidates_s"] += dur
            elif name == "intervals.union":
                m["intervals.union_calls"] += 1
                m["intervals.pieces_in"] += c.get("pieces_in", 0)
                m["intervals.components_out"] += c.get("components_out", 0)
            elif name == "intervals.borel_cantelli_ratio":
                m["intervals.bc_ratio_s"] += dur
            elif name == "cli.finish":
                m["cli.output_bytes"] += c.get("output_bytes", 0)
            if layer == "growth":
                m["growth.calls"] += 1
            if layer == "energy" and not (parent_name or "").startswith("energy."):
                m["energy.rss_growth_mb"] += c.get("rss_growth_mb", 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        m["energy.pairs_per_s"] = _rate(m["energy.pairs"], self_s["energy"])
        m["paircorr.points_per_s"] = _rate(m["paircorr.points"], self_s["paircorr"])
        m["intervals.merge_ratio"] = (
            m["intervals.components_out"] / m["intervals.pieces_in"]
            if m["intervals.pieces_in"] else 0.0
        )
        return m


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
