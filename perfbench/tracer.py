"""Span tracing of formcalc from outside: wrappers installed at run time.

Only ``run.py --trace 1`` imports this module.  ``Tracer.install`` replaces
every binding of each callable in :mod:`layers` (module globals that
re-import it, and class attributes for methods) with a timing wrapper, and
``Tracer.uninstall`` puts the original objects back.

A span records ``[id, parent id, name, op index, start, end, self seconds,
kernels]``.  Self time is the span's duration minus the time its child spans
and kernel calls cover.  Kernel calls (polynomial arithmetic) make no span of
their own: their count and self time are added to ``kernels`` of the nearest
enclosing span, as ``{name: [calls, self seconds]}``.  A kernel call made
directly inside a call of the same kernel metric (``a - b`` runs ``a +
(-b)``) is part of the outer call: it is not counted again and its time is
the outer call's.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict

import layers

_MATRIX = ("poly.matrix_determinant", "poly.matrix_adjugate")


class Tracer:
    def __init__(self, fc):
        self.fc = fc
        self.spans = []
        self.stack = []          # frames: [owning span record, child seconds, kernel name or None]
        self.ids = itertools.count(1)
        self.op = None
        self.active = defaultdict(int)
        self.kernel = defaultdict(lambda: [0, 0.0, 0, 0])  # calls, self_s, products, terms_out
        self.peak_terms = 0
        self.wedge = [0, 0]      # term pairs formed, terms out
        self.matrix = {"const": 0.0, "poly": 0.0}
        self.saved = []

    # -- installing -------------------------------------------------------------

    def install(self):
        replaced = {}
        for name in layers.SPANS:
            self._patch(name, name, self._span, replaced)
        for metric, targets in layers.KERNELS.items():
            for target in targets:
                self._patch(target, metric, self._kernel, replaced)

    def _patch(self, target, name, make, replaced):
        for owner, attribute, original in layers.bindings(self.fc, target):
            if id(original) not in replaced:
                replaced[id(original)] = make(name, original)
            self.saved.append((owner, attribute, original))
            setattr(owner, attribute, replaced[id(original)])

    def uninstall(self):
        for owner, attribute, original in reversed(self.saved):
            setattr(owner, attribute, original)
        self.saved = []

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name, fn):
        stack, spans, active, ids = self.stack, self.spans, self.active, self.ids
        perf = time.perf_counter
        after = {"exterior.wedge": self._after_wedge}.get(name)
        if name in _MATRIX:
            after = self._after_matrix

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = stack[-1][0] if stack else None
            parent = owner[0] if owner is not None else None
            record = [next(ids), parent, name, self.op, 0.0, 0.0, 0.0, None, False]
            frame = [record, 0.0, None]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                duration = end - start
                record[4], record[5], record[6] = start, end, duration - frame[1]
                record[8] = active[name] == 0  # outermost span of this name
                if stack:
                    stack[-1][1] += duration
                spans.append(record)
            if after is not None:
                after(record, args, result)
            return result

        return wrapper

    def _kernel(self, name, fn):
        stack, totals = self.stack, self.kernel
        perf = time.perf_counter
        polynomial = self.fc.Polynomial
        is_mul = name == "poly.mul"

        @functools.wraps(fn)
        def wrapper(*args):
            if stack and stack[-1][2] == name:
                return fn(*args)  # the same operation, counted by the outer call
            owner = stack[-1][0] if stack else None
            frame = [owner, 0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                total = totals[name]
                total[0] += 1
                total[1] += own
                if owner is not None:
                    if owner[7] is None:
                        owner[7] = {}
                    agg = owner[7].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += own
            if isinstance(result, polynomial):
                size = len(result.terms)
                if size > self.peak_terms:
                    self.peak_terms = size
                if is_mul:
                    other = args[1]
                    total[2] += len(args[0].terms) * (len(other.terms) if isinstance(other, polynomial) else 1)
                    total[3] += size
            return result

        return wrapper

    def _after_wedge(self, record, args, result):
        self.wedge[0] += len(args[0].terms) * len(args[1].terms)
        self.wedge[1] += len(result.terms)

    def _after_matrix(self, record, args, result):
        if any(self.active[name] for name in _MATRIX):
            return  # nested in another matrix call, already timed there
        constant = all(entry.is_constant() for row in args[0] for entry in row)
        self.matrix["const" if constant else "poly"] += record[5] - record[4]

    # -- ops ------------------------------------------------------------------------

    def run_op(self, index, kind, fn):
        """Run one benchmark op as the root span ``op.<kind>``."""
        self.op = index
        return self._span(f"op.{kind}", fn)()

    # -- results ----------------------------------------------------------------------

    def _totals(self):
        """Calls, self seconds and outermost-span seconds per name, and span names by id."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        names = {}
        for record in self.spans:
            name = record[2]
            names[record[0]] = name
            calls[name] += 1
            self_s[name] += record[6]
            if record[8]:
                total_s[name] += record[5] - record[4]
        for name, (count, own, _, _) in self.kernel.items():
            calls[name] += count
            self_s[name] += own
        return calls, self_s, total_s, names

    def _under(self, child, parent, names):
        """Spans named ``child`` whose parent span is named ``parent``."""
        return [r for r in self.spans if r[2] == child and names.get(r[1]) == parent]

    def metrics(self, traced_wall, overhead_ratio):
        """Per-layer metric values, by name.

        ``traced_wall`` is the unscaled time of the traced ops, the base of
        the uncovered share; ``overhead_ratio`` is traced over untraced
        scaled time.
        """
        calls, self_s, total_s, names = self._totals()
        mul = self.kernel["poly.mul"]
        values = {}
        for name in ("poly.mul", "poly.add", "poly.diff", "poly.pow", "poly.exact_divide",
                     "poly.matrix_determinant", "poly.matrix_adjugate", "exterior.wedge",
                     "exterior.pair", "schouten.schouten", "brackets.bracket",
                     "dirac.dirac_bracket_matrix", "dirac.dirac_bracket_form",
                     "dirac.calibrate_normalization", "parsing.parse_value"):
            values[f"{name}.calls"] = calls[name]
        for name in ("poly.mul", "poly.add", "poly.diff", "poly.pow", "poly.exact_divide",
                     "exterior.wedge", "exterior.pair", "exterior.contract",
                     "exterior.exterior_derivative", "schouten.schouten", "brackets.bracket",
                     "manifest.parse_scenario_text", "cli.run_scenario"):
            values[f"{name}.self_s"] = self_s[name]
        for name in ("poly.matrix_determinant", "poly.matrix_adjugate", "exterior.form_power",
                     "exterior.poisson_bivector", "brackets.omega_power_bracket",
                     "brackets.derived_vf", "brackets.nambu_top_bracket", "brackets.jacobiator",
                     "dirac.dirac_bracket_matrix", "dirac.dirac_bracket_form",
                     "dirac.calibrate_normalization", "parsing.parse_value", "cli.Report.render"):
            values[f"{name}.total_s"] = total_s[name]
        for name in ("exterior.SymplecticData", "brackets.BracketDef", "dirac.ConstraintSet"):
            values[f"{name}.init_s"] = total_s[f"{name}.__init__"]
        values["poly.mul.terms_out"] = mul[3]
        values["poly.mul.yield"] = mul[3] / mul[2] if mul[2] else 0.0
        values["poly.peak_terms"] = self.peak_terms
        values["poly.matrix.const_s"] = self.matrix["const"]
        values["poly.matrix.poly_s"] = self.matrix["poly"]
        values["exterior.wedge.terms_out"] = self.wedge[1]
        values["exterior.wedge.yield"] = self.wedge[1] / self.wedge[0] if self.wedge[0] else 0.0
        pair_in_bracket = sum(r[5] - r[4] for r in self._under("exterior.pair", "brackets.bracket", names))
        bracket_total = total_s["brackets.bracket"]
        values["brackets.bracket.pair_share"] = pair_in_bracket / bracket_total if bracket_total else 0.0
        form_calls = calls["dirac.dirac_bracket_form"]
        calibrations = len(self._under("dirac.calibrate_normalization", "dirac.dirac_bracket_form", names))
        values["dirac.calibrate_normalization.per_form_call"] = (
            calibrations / form_calls if form_calls else 0.0)
        uncovered = sum(r[6] for r in self.spans if r[2].startswith("op."))
        values["trace.overhead_ratio"] = overhead_ratio
        values["trace.uncovered_s"] = uncovered
        values["trace.uncovered_share"] = uncovered / traced_wall
        return values

    def top_self_time(self, traced_wall, count=8):
        """``(layer, seconds, share of the traced pass)``, most self time first."""
        self_s = self._totals()[1]
        ranked = sorted(((n, s) for n, s in self_s.items() if not n.startswith("op.")),
                        key=lambda item: -item[1])
        return [(name, seconds, seconds / traced_wall) for name, seconds in ranked[:count]]

    def attribution(self, workload, values, traced_wall):
        """Check the cost attribution the ROADMAP baseline made for ``workload``.

        Returns ``(claim, share, confirmed)``; a claim holds when the named
        layers account for more than half of the stated time.
        """
        if workload == "dense-symplectic":
            share = (values["poly.matrix.const_s"] + values["poly.matrix.poly_s"]) / traced_wall
            return "Laplace expansion (determinant + adjugate) dominates the pass", share, share > 0.5
        if workload == "power-brackets":
            wedges = [r for r in self.spans if r[2] == "exterior.wedge"]
            mul_in_wedge = sum(r[7]["poly.mul"][1] for r in wedges if r[7] and "poly.mul" in r[7])
            wedge_total = sum(r[5] - r[4] for r in wedges)
            share = (wedge_total + self.kernel["poly.mul"][1] - mul_in_wedge) / traced_wall
            return "wedge plus polynomial multiply dominate the pass", share, share > 0.5
        names = self._totals()[3]
        form_total = values["dirac.dirac_bracket_form.total_s"]
        calibrate = sum(r[5] - r[4]
                        for r in self._under("dirac.calibrate_normalization", "dirac.dirac_bracket_form", names))
        share = calibrate / form_total if form_total else 0.0
        return "recalibration dominates dirac_bracket_form", share, share > 0.5

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for record in sorted(self.spans, key=lambda r: r[0]):
                out.write(json.dumps(record[:8], separators=(",", ":")) + "\n")
