"""Spans around jetforge's public functions, recorded from outside.

The program has no instrumentation of its own, so the tracer replaces
each timed function at every module attribute that holds it: a function
imported into another module (``jetforge.cli.prolong`` and
``jetforge.solver.prolong`` are separate bindings of
``jetforge.symbols.prolong``) is only seen if that binding is replaced
too.  Spans (name, start, end, parent) stay in memory until the run ends.

``scalar`` and ``jets`` sit under every layer and are called millions of
times; they are not wrapped, so their cost lands in their callers' self
time.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# layer (module of jetforge) -> public functions timed in it
TIMED = {
    "cli": ("run_command",),
    "parser": ("parse_operator", "parse_pdo", "parse_point", "parse_polynomial"),
    "symbols": ("prolong", "fiber_matrix", "apply_operator"),
    "linalg": ("solve", "rank"),
    "solver": ("lift_jet", "solve_at_points", "check_surjectivity", "pcp_check"),
    "algebra": (
        "hermite_interpolate",
        "local_inverse_truncated",
        "taylor_jet",
        "taylor_polynomial",
        "format_poly",
    ),
    "vanishing": ("finsupp_scan",),
    "roots": ("first_rational_root", "count_real_roots"),
}

# the CLI's own post-check: these spans directly under run_command
POST_CHECK = ("symbols.apply_operator", "algebra.taylor_jet")
# algebra functions whose returned polynomial sizes are recorded
POLY_OUT = ("hermite_interpolate", "taylor_polynomial", "local_inverse_truncated")

# name, unit, better: the per-layer metrics, in report order
METRICS = [
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.calls", "count", "lower"),
    ("linalg.cells", "count", "lower"),
    ("linalg.nnz", "count", "lower"),
    ("linalg.max_entry_bits", "bits", "lower"),
    ("algebra.hermite_interpolate.self_s", "s", "lower"),
    ("algebra.local_inverse_truncated.self_s", "s", "lower"),
    ("algebra.taylor_jet.self_s", "s", "lower"),
    ("algebra.taylor_polynomial.self_s", "s", "lower"),
    ("algebra.format_poly.self_s", "s", "lower"),
    ("algebra.out_terms", "count", "lower"),
    ("algebra.out_degree", "count", "lower"),
    ("cli.run_command.self_s", "s", "lower"),
    ("cli.post_check_s", "s", "lower"),
    ("symbols.prolong.self_s", "s", "lower"),
    ("symbols.fiber_matrix.self_s", "s", "lower"),
    ("symbols.apply_operator.self_s", "s", "lower"),
    ("symbols.td_cache_hit_ratio", "ratio", "higher"),
    ("symbols.td_cache_lookups", "count", "lower"),
    ("parser.self_s", "s", "lower"),
    ("parser.calls", "count", "lower"),
    ("solver.lift_jet.self_s", "s", "lower"),
    ("solver.solve_at_points.self_s", "s", "lower"),
    ("solver.check_surjectivity.self_s", "s", "lower"),
    ("solver.pcp_check.self_s", "s", "lower"),
    ("vanishing.finsupp_scan.self_s", "s", "lower"),
    ("roots.first_rational_root.self_s", "s", "lower"),
    ("roots.count_real_roots.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """Install with ``with Tracer(): ...``; read ``spans`` afterwards."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.matrices = []  # (matrix, rhs or None, solution or None) per linalg call
        self.polys = []  # polynomials returned by POLY_OUT functions
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._cache_before = None

    def __enter__(self):
        originals = {}
        for layer, names in TIMED.items():
            module = sys.modules[f"jetforge.{layer}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "jetforge" and not mod_name.startswith("jetforge."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._cache_before = _td_cache().cache_info()
        return self

    def __exit__(self, *exc):
        after = _td_cache().cache_info()
        self.td_hits = after.hits - self._cache_before.hits
        self.td_misses = after.misses - self._cache_before.misses
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        layer, func = name.split(".")
        keep_matrix = layer == "linalg"
        keep_poly = layer == "algebra" and func in POLY_OUT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            # keep references only; sizes are measured after the run
            if keep_matrix:
                rhs = args[1] if len(args) > 1 else None
                self.matrices.append((args[0], rhs, result[0] if func == "solve" else None))
            elif keep_poly:
                self.polys.append(result)
            return result

        return traced

    def metrics(self, wall_s: float, untraced_per_request: float, requests: int) -> dict:
        """Per-layer metrics for a traced loop of ``requests`` requests."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = {}
        calls = {}
        post_check = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name in POST_CHECK and parent >= 0 and self.spans[parent][0] == "cli.run_command":
                post_check += end - start
        out = {}
        for layer, names in TIMED.items():
            for func in names:
                key = f"{layer}.{func}"
                if layer != "parser":
                    out[f"{key}.self_s"] = self_ns.get(key, 0) / 1e9
        out["parser.self_s"] = sum(self_ns.get(f"parser.{f}", 0) for f in TIMED["parser"]) / 1e9
        out["parser.calls"] = sum(calls.get(f"parser.{f}", 0) for f in TIMED["parser"])
        out["cli.post_check_s"] = post_check / 1e9
        out["linalg.calls"] = len(self.matrices)
        out["linalg.cells"] = sum(len(m) * len(m[0]) for m, _, _ in self.matrices if m)
        out["linalg.nnz"] = sum(1 for m, _, _ in self.matrices for row in m for v in row if v)
        out["linalg.max_entry_bits"] = max(
            (_bits(v) for m, rhs, sol in self.matrices
             for v in _chain(m, rhs, sol) if v),
            default=0,
        )
        out["algebra.out_terms"] = max((len(p.terms) for p in self.polys), default=0)
        out["algebra.out_degree"] = max((p.degree for p in self.polys), default=0)
        lookups = self.td_hits + self.td_misses
        out["symbols.td_cache_hit_ratio"] = self.td_hits / lookups if lookups else 0.0
        out["symbols.td_cache_lookups"] = lookups
        out["trace.wall_s"] = wall_s
        out["trace.overhead_ratio"] = (wall_s / requests) / untraced_per_request
        return out


def _td_cache():
    return sys.modules["jetforge.symbols"]._total_derivative_cached


def _chain(matrix, rhs, solution):
    for row in matrix:
        yield from row
    yield from rhs or ()
    yield from solution or ()


def _bits(value) -> int:
    """Largest numerator or denominator bit length of a Scalar or number."""
    parts = (value.re, value.im) if hasattr(value, "re") else (Fraction(value),)
    return max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in parts)
