"""Span recorder and wrappers for the traced benchmark run.

The wrappers replace module attributes and class methods of linkchi from
the outside and put the originals back on ``uninstall``; no file of the
library changes.  Each call of a wrapped function records a span
``[group, start, end, parent, outer]`` in memory, where ``outer`` is false
when the call runs inside another span of the same group.  Counters are
updated at the same boundaries, so ratios are measured where the work
happens.  ``finish_op`` folds one operation's spans into per-group totals
and drops them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

SUITE_PREFIX = "suite_"


def _terms_arg(args, kwargs):
    # NCSeries/CommSeries.__init__(self, n, trunc, terms=None)
    terms = args[3] if len(args) > 3 else kwargs.get("terms")
    return len(terms) if terms else 0


def _count_init(prefix, under=None):
    """Calls and input terms of a constructor, also those built under ``under``."""
    def hook(rec, args, kwargs, result, outer):
        terms = _terms_arg(args, kwargs)
        rec.counts[prefix + ".calls"] += 1
        rec.counts[prefix + ".terms_in"] += terms
        if under is not None and rec.open[under]:
            rec.counts[under + ".terms_in"] += terms
    return hook


def _count_calls(rec, args, kwargs, result, outer, *, name):
    rec.counts[name + ".calls"] += 1


def _count_substitute(rec, args, kwargs, result, outer):
    if outer:
        rec.counts["ncalg.substitute.terms_out"] += len(result.terms)


def _count_chi(rec, args, kwargs, result, outer):
    if outer:
        rec.counts["genfun.input_terms"] += len(args[0].terms)
        rec.counts["invariants.output_terms"] += len(result.terms)
        rec.counts["invariants.chi_terms"] += len(result.terms)


def _count_chi_part(rec, args, kwargs, result, outer):
    if rec.open["invariants.chi"]:
        rec.counts["invariants.part_terms"] += len(result.terms)


def _count_torsion(rec, args, kwargs, result, outer):
    if outer:
        rec.counts["invariants.output_terms"] += len(result.terms)


def _wrap_points(linkchi):
    """(owner, attribute, group, hook) for every traced boundary."""
    seifert, genfun, invariants = linkchi.seifert, linkchi.genfun, linkchi.invariants
    ncalg, commalg, selfcheck, cli = linkchi.ncalg, linkchi.commalg, linkchi.selfcheck, linkchi.cli
    NC, Comm, Bi = ncalg.NCSeries, commalg.CommSeries, genfun.BiSeries
    points = [
        (cli, "main", "cli.main", None),
        (seifert, "parse", "seifert.parse", None),
        (seifert, "validate", "seifert.validate",
         functools.partial(_count_calls, name="seifert.validate")),
        (seifert, "z_matrix", "seifert.z_matrix", None),
    ]
    points += [(seifert, name, "seifert.moves", None) for name in (
        "move_s1", "move_s2", "random_move_rng", "apply_random_moves", "reflect", "direct_sum")]
    points += [(genfun, name, "genfun.build", None) for name in (
        "builtin_series", "delta_series", "phi_series", "monomial", "parse_word", "transform")]
    points += [
        (Bi, "__init__", "genfun.build", None),
        (invariants, "chi", "invariants.chi", _count_chi),
        (invariants, "tr_series", "invariants.tr_series", _count_chi_part),
        (invariants, "i_half_trace", "invariants.i_half_trace", _count_chi_part),
        (invariants, "torsion_polynomial", "invariants.torsion_polynomial", _count_torsion),
        (NC, "__init__", "ncalg.init", _count_init("ncalg.init", "ncalg.substitute")),
    ]
    points += [(NC, name, "ncalg.arith", None) for name in (
        "__add__", "__sub__", "__neg__", "scale", "__mul__", "__rmul__", "__pow__")]
    points += [(ncalg, name, "ncalg.substitute", _count_substitute)
               for name in ("substitute", "tilde", "hat", "bar")]
    points += [
        (ncalg, "cyclic_reduce", "ncalg.cyclic_reduce", None),
        (ncalg.CyclicSeries, "__eq__", "ncalg.cyclic_reduce", None),
        (ncalg, "abelianize", "ncalg.abelianize", None),
        (NC, "to_lines", "ncalg.format", None),
        (NC, "to_triples", "ncalg.format", None),
        (commalg, "det_unit", "commalg.det_unit", None),
        (Comm, "__mul__", "commalg.mul", functools.partial(_count_calls, name="commalg.mul")),
        (Comm, "__rmul__", "commalg.mul", functools.partial(_count_calls, name="commalg.mul")),
        (Comm, "__init__", "commalg.init", _count_init("commalg.init")),
        (commalg, "inverse_unit", "commalg.inverse_unit",
         functools.partial(_count_calls, name="commalg.inverse_unit")),
        (commalg, "unit_power", "commalg.unit_power", None),
        (commalg, "log_unit", "commalg.log_unit", None),
    ]
    return points


def suite_names(selfcheck) -> list[str]:
    """CLI names of the selfcheck suites, e.g. ``suite_edge_cases`` -> ``edge-cases``."""
    return [fn.__name__[len(SUITE_PREFIX):].replace("_", "-") for fn in selfcheck.SUITES]


class Recorder:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, linkchi):
        self.linkchi = linkchi
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.op_s = 0.0
        self.covered_s = 0.0
        self.ops = 0
        self._saved: list = []
        self._z_cache = linkchi.seifert.z_matrix

    def _call(self, group, fn, hook, args, kwargs):
        outer = not self.open[group]
        index = len(self.spans)
        span = [group, 0.0, 0.0, self.stack[-1] if self.stack else -1, outer]
        self.spans.append(span)
        self.stack.append(index)
        self.open[group] += 1
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.open[group] -= 1
            self.stack.pop()
        if hook is not None:
            hook(self, args, kwargs, result, outer)
        return result

    def _wrapper(self, group, fn, hook):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(group, fn, hook, args, kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        selfcheck = self.linkchi.selfcheck
        for owner, attr, group, hook in _wrap_points(self.linkchi):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(group, original, hook))
        suites = selfcheck.SUITES
        self._saved.append((selfcheck, "SUITES", suites))
        selfcheck.SUITES = tuple(
            self._wrapper("selfcheck.suite." + name, fn, None)
            for name, fn in zip(suite_names(selfcheck), suites)
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_op(self, fn):
        """Run ``fn`` as one traced operation under a root span."""
        self.spans.clear()
        before = self._z_cache.cache_info()
        self.install()
        try:
            return self._call("op", fn, None, (), {})
        finally:
            self.uninstall()
            after = self._z_cache.cache_info()
            self.counts["seifert.z_matrix.hits"] += after.hits - before.hits
            self.counts["seifert.z_matrix.misses"] += after.misses - before.misses
            self.finish_op()

    def finish_op(self) -> None:
        spans = self.spans
        child_s = [0.0] * len(spans)
        for group, start, end, parent, outer in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (group, start, end, parent, outer) in enumerate(spans):
            duration = end - start
            if group == "op":
                self.op_s += duration
                self.covered_s += child_s[index]
                continue
            self.self_s[group] += duration - child_s[index]
            if outer:
                self.total_s[group] += duration
        self.ops += 1
        spans.clear()
