"""Per-layer tracing by wrapping the program's public functions from outside.

``Tracer.install`` replaces each listed function with a wrapper that records
its calls and self time, in the module that defines it and in every loaded
``knowhow`` module that imported it by name (``from .checker import
evaluate`` makes a second binding that patching ``checker`` alone would
miss).  ``Tracer.remove`` restores every binding.  A listed function the program
lacks stops the traced run.  Self time is a span's
duration minus the time covered by its child spans, so recursive
``histories_of_length`` calls nest.

The program itself is not instrumented.  Per-pair predicates
(``hist_indist``, ``state_indist``, ``profile_agrees``) and the private
evaluator are not wrapped, because a wrapper would cost more than such a
call; their time stays in the caller's self time.
"""
from __future__ import annotations

import sys
import time

#: Every traced function, as ``module.function`` under ``knowhow``.
LAYERS = {
    "formula": ("parse",),
    "system": ("load_system", "check_regular", "parse_history",
               "histories_of_length"),
    "checker": ("evaluate", "evaluate_naive", "witness"),
    "proofkit": ("parse_derivation", "verify", "is_tautology", "match_axiom"),
    "harness": ("soundness_suite", "check_instance", "lemma_suite",
                "gen_system"),
    "cli": ("main",),
}

TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items()
               for name in names)


class Tracer:
    """Calls, self times and two result counts for the functions in ``LAYERS``."""

    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.bounded_verdicts = 0
        self.max_level_size = 0
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        is_levels = name == "system.histories_of_length"
        returns_verdict = name in ("checker.evaluate", "checker.evaluate_naive")

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                self_s[name] += span - stack.pop()
                if stack:
                    stack[-1] += span
                calls[name] += 1
            if is_levels:
                self.max_level_size = max(self.max_level_size, len(result))
            elif returns_verdict and result.bounded:
                self.bounded_verdicts += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "knowhow" or key.startswith("knowhow."))]
        for qualified in TRACED:
            module_name, fn_name = qualified.split(".")
            home = sys.modules.get(f"knowhow.{module_name}")
            original = getattr(home, fn_name, None)
            if original is None:  # a layer moved: LAYERS and DRIVES must follow
                self.remove()
                raise LookupError(f"knowhow has no {qualified} to trace")
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name: (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["checker.bounded_verdicts"] = (self.bounded_verdicts, "count")
        out["system.histories_of_length.max_level_size"] = (self.max_level_size, "count")
        return out
