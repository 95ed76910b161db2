"""Per-layer tracing from outside the program.

The tracer wraps public functions of the fanodelta modules in place, in
every fanodelta namespace that holds them, and restores the originals on
uninstall; nothing under src/ is changed. Each wrapped call is a span.
Spans nest on a stack, so a span's self time is its duration minus the
durations of the spans it directly contains. Totals are kept per span name,
in memory, and divided by the number of traced operations at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" wraps a method.
SPANS = (
    ("cli.build_parser", "fanodelta.cli", "build_parser"),
    ("cli.parse_args", "fanodelta.cli", "_Parser.parse_args"),
    ("cli.render_json", "fanodelta.cli", "render_json"),
    ("cli.run_check", "fanodelta.cli", "run_check"),
    ("bundle.bundle_delta", "fanodelta.bundle", "bundle_delta"),
    ("cone.cone_delta", "fanodelta.cone", "cone_delta"),
    ("cone.iterated_hypersurface_chain", "fanodelta.cone", "iterated_hypersurface_chain"),
    ("angle.interval", "fanodelta.angle", "optimal_angle_interval"),
    ("angle.interval", "fanodelta.angle", "semistable_range_lambda_ge_1"),
    ("calabi.solve_profile", "fanodelta.calabi", "solve_profile"),
    ("calabi.phi", "fanodelta.calabi", "CalabiProfile.phi"),
    ("calabi.futaki_invariant", "fanodelta.calabi", "futaki_invariant"),
    ("exactarith.format_rational", "fanodelta.exactarith", "format_rational"),
    ("exactarith.polynomial_call", "fanodelta.exactarith", "Polynomial.__call__"),
    ("oracles.run_verification", "fanodelta.oracles", "run_verification"),
    ("oracles.riemann_s_limit", "fanodelta.oracles", "riemann_s_limit"),
    ("oracles.riemann_error_bound", "fanodelta.oracles", "riemann_error_bound"),
    ("oracles.midpoint_centroid_offset", "fanodelta.oracles", "midpoint_centroid_offset"),
    ("oracles.futaki_quadrature", "fanodelta.oracles", "futaki_quadrature"),
    ("oracles.branch_min_bruteforce", "fanodelta.oracles", "branch_min_bruteforce"),
    ("oracles.cone_bundle_consistency", "fanodelta.cone", "cone_bundle_consistency"),
    ("oracles.telescoping_iterated_cone", "fanodelta.oracles", "telescoping_iterated_cone"),
)

# Spans reported as "<name>_ms", self time per operation.
TIMED = tuple(dict.fromkeys(name for name, _, _ in SPANS if name != "oracles.run_verification"))

# Calls into these count as compute calls when only cli spans enclose them.
COMPUTE = frozenset({
    "bundle.bundle_delta", "cone.cone_delta", "cone.iterated_hypersurface_chain",
    "calabi.solve_profile", "oracles.telescoping_iterated_cone",
})

# The O(m) finite-level sums of the verification suite.
KERNELS = (
    "oracles.riemann_s_limit", "oracles.riemann_error_bound",
    "oracles.midpoint_centroid_offset", "oracles.futaki_quadrature",
)

_ABSENT = object()


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, seconds spent in direct children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.total_seconds: dict[str, float] = defaultdict(float)
        self.compute_calls = 0
        self.ops = 0
        self.op_seconds = 0.0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, function):
        stack = self.stack
        compute = name in COMPUTE

        @functools.wraps(function)
        def span(*args, **kwargs):
            if compute and all(frame[0].startswith("cli.") for frame in stack):
                self.compute_calls += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total_seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return span

    def install(self) -> None:
        importlib.import_module("fanodelta.cli")
        modules = [m for key, m in sys.modules.items()
                   if key == "fanodelta" or key.startswith("fanodelta.")]
        for name, module, attribute in SPANS:
            owner = importlib.import_module(module)
            class_name, _, attribute = attribute.rpartition(".")
            if class_name:
                cls = getattr(owner, class_name)
                self._restore.append((cls, attribute, cls.__dict__.get(attribute, _ABSENT)))
                setattr(cls, attribute, self._wrap(name, getattr(cls, attribute)))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            for namespace in modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, key, original))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if original is _ABSENT:
                delattr(target, key)
            else:
                setattr(target, key, original)
        self._restore.clear()

    def record_op(self, seconds: float) -> None:
        self.ops += 1
        self.op_seconds += seconds

    def to_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_seconds": dict(self.self_seconds),
            "total_seconds": dict(self.total_seconds),
            "compute_calls": self.compute_calls,
        }

    def merge(self, data: dict) -> None:
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["self_seconds"].items():
            self.self_seconds[key] += value
        for key, value in data["total_seconds"].items():
            self.total_seconds[key] += value
        self.compute_calls += data["compute_calls"]

    def per_op(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        ops = max(self.ops, 1)
        metrics = {f"{name}_ms": (1000 * self.self_seconds[name] / ops, "ms") for name in TIMED}
        metrics["cli.build_parser_calls_per_op"] = (self.calls["cli.build_parser"] / ops, "count")
        metrics["cli.compute_calls_per_op"] = (self.compute_calls / ops, "count")
        kernel = sum(self.total_seconds[name] for name in KERNELS)
        metrics["oracles.kernel_share"] = (kernel / self.op_seconds if self.op_seconds else 0.0,
                                           "ratio")
        return metrics
