"""Spans and counts around melnlab's public functions, for the traced run.

The tracer patches functions from the outside: melnlab itself holds no
tracing code.  A function is replaced under every name it is looked up by
(``melnlab.cli`` binds ``melnikov``, ``certify_family`` and others at import,
so patching only the defining module would miss the CLI's calls); a method
is replaced on its class, under every alias (``Jet.__rmul__ is __mul__``).

Each span is ``(name, start, end, parent)`` and all spans stay in memory
until the run ends.  Self time is a span's duration minus the durations of
its child spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# layer -> (module, class or None, attributes); span name "<layer>.<attr>"
SPANNED = (
    ("simulate", "melnlab.simulate", None,
     ("integrate_return", "extract_melnikov", "find_limit_cycles")),
    ("recursion", "melnlab.recursion", "ZTable", ("__init__",)),
    ("recursion", "melnlab.recursion", None, ("melnikov", "melnikov_all")),
    ("polar", "melnlab.polar", "PolarField", ("f_r_jets", "f_nested_jets")),
    ("closedforms", "melnlab.closedforms", None,
     ("m1_closed", "fit_to_span", "sign_pattern_search", "table3_structure_config")),
    ("basis", "melnlab.basis", "BasisFunction", ("jet",)),
    ("certify", "melnlab.certify", None,
     ("wronskian", "wronskian_scaled", "isolate_zeros", "certify_family",
      "prop4_witness", "prop5_witness")),
    ("reports", "melnlab.reports", None, ("write_csv", "write_json", "write_gnuplot")),
    ("cli", "melnlab.cli", None, ("main",)),
)
# counted without a span: these run too often for a span to be cheap
COUNTED = (
    ("series.jet_muls", "melnlab.series", "Jet", "__mul__"),
    ("certify.fallbacks", "mpmath", None, "det"),   # only the precise fallback calls det
)
LAYERS = ("simulate", "recursion", "polar", "closedforms", "basis", "certify",
          "reports", "cli")
MAX_ORDER = 6


class Tracer:
    """Holds the spans, counters and patches of one traced run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for layer, module, cls, attrs in SPANNED:
            owner = _owner(module, cls)
            for attr in attrs:
                name = f"{layer}.{cls}.{attr}" if cls else f"{layer}.{attr}"
                orig = getattr(owner, attr)
                self._replace(owner, cls, orig, self._spanned(name, orig, _HOOKS.get(name)))
        for counter, module, cls, attr in COUNTED:
            orig = getattr(_owner(module, cls), attr)
            self._replace(_owner(module, cls), cls, orig, self._counted(counter, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _replace(self, owner, cls, orig, wrapper) -> None:
        if cls:
            targets = [owner]
        else:
            targets = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == "melnlab" or n.startswith("melnlab."))]
            targets += [owner]
        for target in dict.fromkeys(targets):
            for attr, value in list(vars(target).items()):
                if value is orig:
                    self._patches.append((target, attr, orig))
                    setattr(target, attr, wrapper)

    def _spanned(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric, from this run's spans and counters."""
        total: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        durations: defaultdict[str, list[float]] = defaultdict(list)
        layer_self: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            durations[name].append(end - start)
            layer_self[name.split(".")[0]] += own
        returns_in_extract = sum(
            1 for name, _, _, parent in self.spans
            if name == "simulate.integrate_return" and parent >= 0
            and self.spans[parent][0] == "simulate.extract_melnikov")

        def ratio(num, den):
            return num / den if den else 0.0

        def pct_ms(values, q):
            return 1e3 * float(np.percentile(values, q)) if values else 0.0

        c = self.counts
        returns = durations["simulate.integrate_return"]
        extracts = calls["simulate.extract_melnikov"]
        builds = calls["recursion.ZTable.__init__"]
        requests = calls["recursion.melnikov"] + calls["recursion.melnikov_all"]
        wronskians = calls["certify.wronskian"] + calls["certify.wronskian_scaled"]
        m = {
            "simulate.returns": len(returns),
            "simulate.return_s": total["simulate.integrate_return"],
            "simulate.return_ms_p50": pct_ms(returns, 50),
            "simulate.return_ms_p95": pct_ms(returns, 95),
            "simulate.extracts": extracts,
            "simulate.extract_s": total["simulate.extract_melnikov"],
            "simulate.returns_per_extract": ratio(returns_in_extract, extracts),
            "simulate.flagged_ratio": ratio(c["simulate.flagged"], extracts),
            "simulate.cycles_s": total["simulate.find_limit_cycles"],
            "recursion.builds": builds,
            "recursion.build_s": total["recursion.ZTable.__init__"],
        }
        for order in range(1, MAX_ORDER + 1):
            per_build = self.samples[f"recursion.build.o{order}"]
            m[f"recursion.build_ms.o{order}"] = (
                1e3 * statistics.median(per_build) if per_build else 0.0)
        m.update({
            "recursion.requests": requests,
            "recursion.builds_per_request": ratio(builds, requests),
            "polar.cheb_nodes": c["polar.cheb_nodes"],
            "polar.field_s": total["polar.PolarField.f_r_jets"]
                             + total["polar.PolarField.f_nested_jets"],
            "series.jet_muls": c["series.jet_muls"],
            "closedforms.closed_s": total["closedforms.m1_closed"],
            "closedforms.fit_s": total["closedforms.fit_to_span"],
            "closedforms.search_s": total["closedforms.sign_pattern_search"]
                                    + total["closedforms.table3_structure_config"],
            "basis.jets": calls["basis.BasisFunction.jet"],
            "basis.jet_s": total["basis.BasisFunction.jet"],
            "certify.wronskians": wronskians,
            "certify.wronskian_s": total["certify.wronskian"]
                                   + total["certify.wronskian_scaled"],
            "certify.fallbacks": c["certify.fallbacks"],
            "certify.fallback_ratio": ratio(c["certify.fallbacks"], wronskians),
            "certify.certify_s": total["certify.certify_family"]
                                 + total["certify.prop4_witness"]
                                 + total["certify.prop5_witness"],
            "certify.isolate_s": total["certify.isolate_zeros"],
            "certify.budget_used": c["certify.budget_used"],
            "certify.budget_ratio": ratio(c["certify.budget_used"], c["certify.budget"]),
            "reports.write_s": total["reports.write_csv"] + total["reports.write_json"]
                               + total["reports.write_gnuplot"],
            "reports.bytes": c["reports.bytes"],
        })
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
            m[f"{layer}.share"] = ratio(layer_self[layer], wall_s)
        m["trace.spans"] = len(self.spans)
        return m


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


# hooks run after a span closes: (tracer, call args, result, duration)

def _ztable_hook(tracer, args, result, duration):
    tracer.samples[f"recursion.build.o{args[0].order}"].append(duration)


def _extract_hook(tracer, args, result, duration):
    tracer.counts["simulate.flagged"] += bool(result.flagged)


def _field_hook(tracer, args, result, duration):
    tracer.counts["polar.cheb_nodes"] += int(np.size(args[3]))


def _isolate_hook(tracer, args, result, duration):
    tracer.counts["certify.budget_used"] += result.budget_used
    tracer.counts["certify.budget"] += result.budget


def _write_hook(tracer, args, result, duration):
    tracer.counts["reports.bytes"] += os.path.getsize(result)


_HOOKS = {
    "recursion.ZTable.__init__": _ztable_hook,
    "simulate.extract_melnikov": _extract_hook,
    "polar.PolarField.f_r_jets": _field_hook,
    "certify.isolate_zeros": _isolate_hook,
    "reports.write_csv": _write_hook,
    "reports.write_json": _write_hook,
    "reports.write_gnuplot": _write_hook,
}
