"""Spans around calls into revreact's public functions, recorded from outside.

A probe wraps a function where its callers reach it: every module attribute
of the named revreact modules that is bound to the function is replaced by
a wrapper while a traced operation runs, and restored afterwards, so
untraced operations run the program untouched.  A probe whose function no
longer exists is simply not installed; the metrics built on it are then
reported as absent.

Spans are kept in memory as (name, start, end, parent, outermost); a span's
self time is its duration minus the durations of its direct children, and
only spans not nested in one of the same name add to the inclusive time.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import functools
import importlib
import inspect
import sys
import time

@dataclass(frozen=True)
class Probe:
    """Record span `span` around calls of `module`.`function` made through `callers`
    (module names; None means every revreact module).

    `tally` names an argument whose value is added to the count of the same
    name on every call.  `counter` probes record no span: they count calls
    made while a span named `inside` is open.
    """

    span: str
    module: str
    function: str
    callers: tuple | None = None
    tally: str | None = None
    counter: bool = False
    inside: str | None = None


_INEQUALITY = ("relative_entropy", "ckp_lower_bound", "dissipation_deviation_bound",
               "ckp_violation", "bound_violation")

PROBES = (
    [
        Probe("cli.cmd_run", "revreact.cli", "cmd_run"),
        Probe("cli.cmd_analyze", "revreact.cli", "cmd_analyze"),
        Probe("cli.cmd_verify", "revreact.cli", "cmd_verify"),
        Probe("cli.parse_config", "revreact.cli", "parse_config"),
        Probe("cli.build_initial", "revreact.cli", "build_initial"),
        Probe("cli.write_snapshot", "revreact.cli", "write_snapshot"),
        Probe("cli.read_timeseries", "revreact.cli", "read_timeseries"),
        Probe("solver.run", "revreact.solver", "run"),
        Probe("functionals.sample", "revreact.functionals", "sample"),
        Probe("oracle.homogeneous_ode", "revreact.oracle", "homogeneous_ode",
              tally="substeps"),
        Probe("oracle.brute_force", "revreact.oracle", "brute_force_sample"),
        Probe("analysis.fit", "revreact.analysis", "fit_subexponential"),
        Probe("analysis.fit", "revreact.analysis", "check_theorem_envelope"),
        Probe("analysis.balance", "revreact.analysis", "entropy_balance_audit"),
        Probe("analysis.growth", "revreact.analysis", "growth_diagnostics_from_series"),
    ]
    # the inequality ensemble of `verify`; sample() calls some of the same
    # functions, so only the names verify imports are wrapped
    + [Probe("functionals.inequality", "revreact.functionals", name,
             callers=("revreact.verify",)) for name in _INEQUALITY]
)

#: modules imported before probes are installed, so that lazily imported
#: ones (cmd_verify imports revreact.verify on first use) are wrapped too
MODULES = ("revreact.cli", "revreact.solver", "revreact.functionals", "revreact.analysis",
           "revreact.oracle", "revreact.verify", "revreact.grid")


def _grid_counters():
    """Count every call from functionals into a function of revreact.grid made
    while sample() runs."""
    grid = sys.modules.get("revreact.grid")
    names = [name for name, fn in vars(grid).items()
             if inspect.isfunction(fn) and fn.__module__ == "revreact.grid"] if grid else []
    return [Probe("grid_calls", "revreact.grid", name, callers=("revreact.functionals",),
                  counter=True, inside="functionals.sample") for name in names]


class Tracer:
    """Installs the probes around one operation and aggregates its spans."""

    def __init__(self):
        for name in MODULES:
            try:
                importlib.import_module(name)
            except ImportError:
                pass
        self.probes = PROBES + _grid_counters()
        self.installed = set()
        self.spans = []      # [name, start, end, parent index, outermost]
        self.counts = Counter()
        self._stack = []
        self._open = Counter()
        self._patches = []   # (module, attribute, original)

    def _targets(self, probe):
        module = sys.modules.get(probe.module)
        fn = getattr(module, probe.function, None)
        if not callable(fn):
            return None, []
        callers = probe.callers or [m for m in sys.modules if m.startswith("revreact")]
        found = []
        for caller in callers:
            mod = sys.modules.get(caller)
            for attr, value in vars(mod).items() if mod is not None else ():
                if value is fn:
                    found.append((mod, attr))
        return fn, found

    def _wrap(self, probe, fn):
        spans, stack, open_, counts = self.spans, self._stack, self._open, self.counts
        name = probe.span
        if probe.counter:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if open_[probe.inside]:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        signature = inspect.signature(fn) if probe.tally else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                counts[probe.tally] += signature.bind(*args, **kwargs).arguments[probe.tally]
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          not open_[name]])
            stack.append(index)
            open_[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
                open_[name] -= 1
        return traced

    def __enter__(self):
        self.spans.clear()
        self.counts.clear()
        for probe in self.probes:
            fn, targets = self._targets(probe)
            if not targets:
                continue
            wrapper = self._wrap(probe, fn)
            for mod, attr in targets:
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
            self.installed.add(probe.span)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, incl, self_ = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, start, end, _, outermost) in enumerate(self.spans):
            calls[name] += 1
            if outermost:
                incl[name] += end - start
            self_[name] += end - start - child_time[index]
        return calls, incl, self_
