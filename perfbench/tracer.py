"""Spans and counters around mdzeta's layers, installed from outside the package.

The tracer replaces module attributes and class methods of a loaded mdzeta
with wrappers for the length of one traced pass, then restores them, so
untraced passes run the unmodified code.  Each wrapped call records a span
(id, layer, start, end, parent id) in memory and its counters at the same
boundary.  A layer's self time is its spans' durations minus the time their
child spans cover, so the self times of all layers add up to the time spent
inside the root `cli` spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, layer, start, child time]
        self._next_id = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def span(self, owner, attr: str, layer: str, calls: str, before=None, after=None):
        """Time every call of owner.attr as a span of `layer`, counted in `calls`."""

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(self, args, kwargs)
                parent = self._stack[-1] if self._stack else None
                frame = [self._next_id, layer, time.perf_counter(), 0.0]
                self._next_id += 1
                self._stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    duration = end - frame[2]
                    self.self_s[layer] += duration - frame[3]
                    if parent is not None:
                        parent[3] += duration
                    self.spans.append(
                        (frame[0], layer, frame[2], end, None if parent is None else parent[0])
                    )
                self.counts[calls] += 1
                if after is not None:
                    after(self, args, kwargs, result)
                return result

            return wrapper

        self._patch(owner, attr, make_wrapper)

    def counter(self, owner, attr: str, count) -> None:
        """Count calls of owner.attr without a span (for hot kernels)."""

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                count(self, args, kwargs)
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make_wrapper)

    def current_layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def install(self, mdz) -> None:
        """Wrap the layer boundaries of the loaded mdzeta modules in `mdz`."""
        ev, gf, mp, ex = mdz.evaluator, mdz.genfun, mdz.mpseries, mdz.exact
        plan = gf.GeneratingFunctionPlan
        self.span(mdz.cli, "main", "cli", "cli.calls")
        self.span(ev, "verify_parity", "evaluator.verify", "evaluator.verify_calls")
        self.span(ev, "zeta_refined", "evaluator.direct", "evaluator.direct_calls",
                  before=_count_direct_terms)
        self.span(ev, "fit_tail", "evaluator.tail_fit", "evaluator.tail_fits",
                  after=_count_fitted)
        self.span(ev, "rhs_total", "evaluator.reduced", "evaluator.reduced_calls")
        self.span(plan, "__init__", "genfun.plan_build", "genfun.plan_builds")
        self.span(plan, "evaluate", "genfun.evaluate", "genfun.evaluate_calls",
                  before=_count_outer_tuple)
        self.span(plan, "_assemble_regular", "genfun.G_regular", "genfun.G_regular_calls")
        self.span(plan, "_assemble_singular", "genfun.G_singular", "genfun.G_singular_calls")
        self.span(mp, "divide_linear", "mpseries.divide_linear", "mpseries.divide_linear_calls")
        self.counter(mp, "series_mul", _count_series_mul)
        self.span(ex, "coset_representatives", "exact.coset", "exact.coset_calls",
                  after=_count_coset_reps)
        self.span(ex, "choose_rho", "exact.rho", "exact.rho_calls")
        self.span(ex, "dual_basis", "exact.dual", "exact.dual_calls")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def write_spans(self, fh, pass_index: int, origin: float) -> None:
        for span_id, layer, start, end, parent in self.spans:
            record = {"pass": pass_index, "id": span_id, "name": layer,
                      "start": start - origin, "end": end - origin, "parent": parent}
            fh.write(json.dumps(record) + "\n")


def _count_direct_terms(tracer: Tracer, args, kwargs) -> None:
    spec, M = args[0], args[1] if len(args) > 1 else kwargs["M"]
    tracer.counts["evaluator.direct_terms"] += M**spec.r


def _count_fitted(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["evaluator.tail_fits_fitted"] += bool(result[2])


def _count_outer_tuple(tracer: Tracer, args, kwargs) -> None:
    # Outer tuples of the reduced side; cmd_reduce's unit-tuple samples are
    # evaluated from the cli layer and do not count.
    m_outer = args[1] if len(args) > 1 else kwargs.get("m_outer")
    if m_outer and tracer.current_layer() == "evaluator.reduced":
        tracer.counts["evaluator.outer_tuples"] += 1


def _count_series_mul(tracer: Tracer, args, kwargs) -> None:
    a, b = args
    tracer.counts["mpseries.series_mul_calls"] += 1
    tracer.counts["mpseries.series_mul_pairs"] += len(a.coeffs) * len(b.coeffs)


def _count_coset_reps(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["exact.coset_reps"] += len(result.representatives)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    s, c = tracer.self_s, tracer.counts

    def per_s(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    g_calls = c["genfun.G_regular_calls"] + c["genfun.G_singular_calls"]
    out = {
        "cli.overhead_s": (s["cli"], "s"),
        "evaluator.verify_s": (s["evaluator.verify"], "s"),
        "evaluator.direct_s": (s["evaluator.direct"], "s"),
        "evaluator.direct_terms": (c["evaluator.direct_terms"], "count"),
        "evaluator.direct_terms_per_s": (
            per_s(c["evaluator.direct_terms"], s["evaluator.direct"]), "1/s"),
        "evaluator.reduced_s": (s["evaluator.reduced"], "s"),
        "evaluator.outer_tuples": (c["evaluator.outer_tuples"], "count"),
        "evaluator.outer_tuples_per_s": (
            per_s(c["evaluator.outer_tuples"], s["evaluator.reduced"]), "1/s"),
        "evaluator.tail_fit_s": (s["evaluator.tail_fit"], "s"),
        "evaluator.tail_fits": (c["evaluator.tail_fits"], "count"),
        "evaluator.tail_fitted_share": (
            c["evaluator.tail_fits_fitted"] / c["evaluator.tail_fits"]
            if c["evaluator.tail_fits"] else 0.0, "share"),
        "genfun.plan_build_s": (s["genfun.plan_build"], "s"),
        "genfun.plan_builds": (c["genfun.plan_builds"], "count"),
        "genfun.evaluate_s": (s["genfun.evaluate"], "s"),
        "genfun.G_regular_s": (s["genfun.G_regular"], "s"),
        "genfun.G_regular_calls": (c["genfun.G_regular_calls"], "count"),
        "genfun.G_singular_s": (s["genfun.G_singular"], "s"),
        "genfun.G_singular_calls": (c["genfun.G_singular_calls"], "count"),
        "genfun.G_singular_share": (
            c["genfun.G_singular_calls"] / g_calls if g_calls else 0.0, "share"),
        "mpseries.series_mul_calls": (c["mpseries.series_mul_calls"], "count"),
        "mpseries.series_mul_pairs": (c["mpseries.series_mul_pairs"], "count"),
        "mpseries.divide_linear_s": (s["mpseries.divide_linear"], "s"),
        "mpseries.divide_linear_calls": (c["mpseries.divide_linear_calls"], "count"),
        "exact.coset_s": (s["exact.coset"], "s"),
        "exact.coset_calls": (c["exact.coset_calls"], "count"),
        "exact.coset_reps": (c["exact.coset_reps"], "count"),
        "exact.rho_s": (s["exact.rho"], "s"),
        "exact.rho_calls": (c["exact.rho_calls"], "count"),
        "exact.dual_s": (s["exact.dual"], "s"),
        "exact.dual_calls": (c["exact.dual_calls"], "count"),
    }
    return out
