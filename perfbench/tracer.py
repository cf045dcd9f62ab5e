"""Outside-in span tracer for mblab.

The tracer never edits mblab.  It replaces a function at every name an
mblab module binds it under (``mblab.continuum.bessel_j``,
``mblab.eigensolver.scaled_pencil``, ...), because each importing module
calls through its own binding: patching only ``mblab.special`` would
record nothing.  Each span records its name, its parent span, its start
and end, and the request it belongs to; the self time of a span is its
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import sys
import time

# Functions wrapped, by defining module.  These are the public entry
# points of each layer plus the private solve helpers that other mblab
# modules import across the layer boundary (continuum and verification
# reach into eigensolver._solve_scaled / _solve_core).  A private helper
# that no longer exists is skipped; a missing public one is an error.
# No run requires a private span to fire.  Hot scalar
# helpers called per matrix row (norm_ratio, log_gamma) are left out:
# wrapping them would cost more than the work they do.
TARGETS = {
    "mblab.cli": ["main"],
    "mblab.pencil": ["scaled_pencil", "build_pencil", "symmetrized_bands"],
    "mblab.jacobi": ["log_norm_sequence", "norm_sequence"],
    "mblab.eigensolver": [
        "sharp_constant",
        "extremal_polynomial",
        "smallest_eigenpair",
        "_solve_scaled",
        "_solve_core",
    ],
    "mblab.special": ["bessel_j", "bessel_j_derivative", "smallest_positive_zero"],
    "mblab.discrete": ["y_bundle", "particular_v", "residual_support"],
    "mblab.continuum": ["profile_compare", "convergence_study", "ode_residual"],
    "mblab.verification": ["run_verification"],
}

# Spans whose individual durations the summary keeps (for per-call medians).
PER_CALL = ("cli.main", "pencil.scaled_pencil", "verification.run_verification")


class Tracer:
    """Collects spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end, request]
        self.request = -1
        self._stack = []
        self._patched = []     # (module, attribute, original)
        self.fired = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fired = self.fired

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, self.request]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                fired.add(name)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mblab" or key.startswith("mblab."))]
        for module_name, names in TARGETS.items():
            home = sys.modules.get(module_name)
            if home is None:
                continue        # not imported by this process (mblab.cli in serve.py)
            layer = module_name.split(".", 1)[1]
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    if attr.startswith("_"):
                        continue    # a private helper a refactor removed
                    raise AttributeError(f"{module_name} has no public {attr}")
                wrapper = self._wrap(f"{layer}.{attr.lstrip('_')}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def summary(self):
        """Per request and span name: [calls, total seconds, self seconds,
        per-call durations (kept only for names in PER_CALL)].  Self
        time is the duration minus the direct children's durations; calls
        run on one thread, so children never overlap each other."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, parent, start, end, request) in enumerate(self.spans):
            entry = out.setdefault(str(request), {}).setdefault(name, [0, 0.0, 0.0, []])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
            if name in PER_CALL:
                entry[3].append(end - start)
        return out
