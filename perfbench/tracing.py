"""In-memory span tracing of the fig8 layers, from outside the package.

Hooks replace the public functions that each fig8 module binds (for
example `fig8.shooting.residuals`, the name `newton_solve` and
`scan_grid` look up, and `fig8.analysis.accelerations`, the name
`curvature_profile` looks up) with wrappers that record a span (name,
start, end, parent) and counts. Spans stay in memory; `write` stores
them at the end of a run. A hook whose target no longer exists is
skipped, and the metrics that need it are reported absent.
"""

import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the benchmark calls the top-level
# entry points through their modules, so patching the attribute there
# is enough to see them
HOOKS = [
    ("fig8.shooting", "integrate_to_collinear", "integrate"),
    ("fig8.analysis", "integrate_to_collinear", "integrate"),
    ("fig8.shooting", "residuals", "shooting.residuals"),
    ("fig8.continuation", "residuals", "shooting.residuals"),
    ("fig8.shooting", "newton_solve", "shooting.newton"),
    ("fig8.shooting", "find_seeds", "shooting.find_seeds"),
    ("fig8.continuation", "continue_family", "continuation.continue_family"),
    ("fig8.continuation", "locate_special", "continuation.special"),
    ("fig8.analysis", "orbit_from_record", "analysis.orbit_from_record"),
    ("fig8.analysis", "orbit_summary", "analysis.orbit_summary"),
    ("fig8.analysis", "collision_report", "analysis.collision_report"),
    ("fig8.analysis", "curvature_profile", "analysis.curvature_profile"),
    ("fig8.analysis", "accelerations", "dynamics.accelerations"),
    ("fig8.analysis", "total_energy", "dynamics.total_energy"),
    ("fig8.shooting", "total_energy", "dynamics.total_energy"),
]
# counts the right-hand-side evaluations of every integration
RHS_HOOK = ("fig8.integrate", "make_rhs")

# metric -> span names it needs
_NEEDS = {
    "integrate.": {"integrate"},
    "shooting.residuals.": {"shooting.residuals", "integrate"},
    "shooting.newton.": {"shooting.newton", "shooting.residuals"},
    "shooting.find_seeds.": {"shooting.find_seeds"},
    "shooting.seeds": {"shooting.find_seeds"},
    "continuation.": {"continuation.continue_family", "continuation.special",
                      "integrate"},
    "analysis.orbit_from_record.": {"analysis.orbit_from_record"},
    "analysis.collision_report.": {"analysis.collision_report"},
    "analysis.collision_intervals": {"analysis.collision_report"},
    "analysis.curvature_profile.": {"analysis.curvature_profile"},
    "analysis.orbit_summary.": {"analysis.orbit_summary"},
    "dynamics.": {"dynamics.accelerations", "dynamics.total_energy"},
}


class Tracer:
    """Spans and counts of one traced stretch of a run."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.failed = []
        self.stack = []
        self.counts = Counter()
        self.installed = set()
        self.missing = []
        self.ops = []           # (first span, end span, calibration scale)
        self._restore = []
        self._op_first = 0

    # -- installation ---------------------------------------------------

    def install(self):
        import importlib

        for mod_name, attr, span in HOOKS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self._wrap(fn, span))
            self._restore.append((mod, attr, fn))
            self.installed.add(span)
        mod_name, attr = RHS_HOOK
        mod = importlib.import_module(mod_name)
        make_rhs = getattr(mod, attr, None)
        if make_rhs is None:
            self.missing.append(f"{mod_name}.{attr}")
        else:
            setattr(mod, attr, self._wrap_make_rhs(make_rhs))
            self._restore.append((mod, attr, make_rhs))
            self.installed.add("rhs")

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            k = len(tracer.names)
            tracer.names.append(name)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.failed.append(False)
            tracer.end.append(0.0)
            tracer.stack.append(k)
            rhs0 = tracer.counts["rhs"]
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end[k] = time.perf_counter()
                tracer.failed[k] = True
                tracer.stack.pop()
                raise
            tracer.end[k] = time.perf_counter()
            tracer.stack.pop()
            tracer._count_result(name, out, tracer.counts["rhs"] - rhs0)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_make_rhs(self, make_rhs):
        counts = self.counts

        def counting_make_rhs(*args, **kwargs):
            rhs = make_rhs(*args, **kwargs)

            def counted(t, y):
                counts["rhs"] += 1
                return rhs(t, y)

            return counted

        return counting_make_rhs

    def _count_result(self, name, out, rhs_evals):
        # read results defensively: a changed return shape drops a count,
        # it does not fail the traced call
        c = self.counts
        if name == "integrate":
            # integrate_to_collinear returns (t_f, state, segment)
            ts = getattr(out[-1], "ts", None) if isinstance(out, tuple) else None
            if ts is not None:
                c["steps"] += len(ts) - 1
                c["rhs_ok"] += rhs_evals
        elif name == "shooting.find_seeds":
            c["seeds"] += len(out) if isinstance(out, list) else 0
        elif name == "continuation.continue_family":
            c["points"] += len(getattr(out, "points", ()))
        elif name == "analysis.collision_report":
            c["intervals"] += len(getattr(out, "intervals", ()))

    # -- per-operation calibration -----------------------------------------

    def begin_op(self):
        self._op_first = len(self.names)

    def end_op(self, scale: float):
        self.ops.append((self._op_first, len(self.names), scale))

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.names.count(name)

    def _scale_of_spans(self):
        scale = [1.0] * len(self.names)
        for first, last, s in self.ops:
            for k in range(first, last):
                scale[k] = s
        return scale

    def metrics(self) -> dict:
        """Per-layer metrics in calibrated seconds; absent hooks drop theirs."""
        n = len(self.names)
        scale = self._scale_of_spans()
        dur = [(self.end[k] - self.start[k]) * scale[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            if self.parent[k] >= 0:
                child[self.parent[k]] += dur[k]
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = Counter()
        failed = Counter()
        for k in range(n):
            nm = self.names[k]
            total[nm] += dur[k]
            self_s[nm] += dur[k] - child[k]
            calls[nm] += 1
            failed[nm] += self.failed[k]

        def under(k, name):
            p = self.parent[k]
            while p >= 0:
                if self.names[p] == name:
                    return True
                p = self.parent[p]
            return False

        def count_under(span, ancestor):
            return sum(1 for k in range(n)
                       if self.names[k] == span and under(k, ancestor))

        c = self.counts
        cont_int = count_under("integrate", "continuation.continue_family")
        m = {
            "integrate.calls": (calls["integrate"], "count"),
            "integrate.steps": (c["steps"], "count"),
            "integrate.rhs_evals": (c["rhs"], "count"),
            "integrate.rhs_evals_per_step": (
                c["rhs_ok"] / c["steps"] if c["steps"] else 0.0, "ratio"),
            "integrate.failed": (failed["integrate"], "count"),
            "integrate.self_s": (self_s["integrate"], "s"),
            "shooting.residuals.calls": (calls["shooting.residuals"], "count"),
            "shooting.residuals.self_s": (self_s["shooting.residuals"], "s"),
            "shooting.newton.calls": (calls["shooting.newton"], "count"),
            "shooting.newton.integrations": (
                count_under("shooting.residuals", "shooting.newton"), "count"),
            "shooting.newton.self_s": (self_s["shooting.newton"], "s"),
            "shooting.find_seeds.s": (total["shooting.find_seeds"], "s"),
            "shooting.seeds": (c["seeds"], "count"),
            "continuation.points": (c["points"], "count"),
            "continuation.integrations": (cont_int, "count"),
            "continuation.integrations_per_point": (
                cont_int / c["points"] if c["points"] else 0.0, "ratio"),
            "continuation.self_s": (self_s["continuation.continue_family"]
                                    + self_s["continuation.special"], "s"),
            "continuation.special.integrations": (
                count_under("integrate", "continuation.special"), "count"),
            "continuation.special.s": (total["continuation.special"], "s"),
            "analysis.orbit_from_record.s": (
                total["analysis.orbit_from_record"], "s"),
            "analysis.collision_report.s": (total["analysis.collision_report"], "s"),
            "analysis.curvature_profile.s": (
                total["analysis.curvature_profile"], "s"),
            "analysis.orbit_summary.self_s": (
                self_s["analysis.orbit_summary"], "s"),
            "analysis.collision_intervals": (c["intervals"], "count"),
            "dynamics.accelerations.calls": (calls["dynamics.accelerations"], "count"),
            "dynamics.total_energy.calls": (calls["dynamics.total_energy"], "count"),
            "dynamics.self_s": (self_s["dynamics.accelerations"]
                                + self_s["dynamics.total_energy"], "s"),
        }
        if "rhs" not in self.installed:
            for key in ("integrate.rhs_evals", "integrate.rhs_evals_per_step"):
                m.pop(key)
        for prefix, needs in _NEEDS.items():
            if not needs <= self.installed:
                for key in [k for k in m if k.startswith(prefix)]:
                    m.pop(key)
        return m

    def write(self, path):
        """Store spans and counts as JSON: one [name, start, end, parent] per span."""
        index = {nm: i for i, nm in enumerate(dict.fromkeys(self.names))}
        t0 = self.start[0] if self.start else 0.0
        payload = {
            "names": list(index),
            "spans": [[index[self.names[k]], self.start[k] - t0,
                       self.end[k] - t0, self.parent[k]]
                      for k in range(len(self.names))],
            "counts": dict(self.counts),
            "missing_hooks": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
