"""Spans around spinwreath's layer entry points, installed from outside.

``install()`` replaces each function in ``ENTRY_POINTS`` with a wrapper in
every ``spinwreath`` module namespace that binds it (``verify`` is bound in
``strategies``, ``synthesis``, ``decision``, ``analysis``, ``cli`` and the
package itself), so a call is caught whichever module makes it.  The lazily
built |K|-sized tables of ``WreathContext`` are cached properties; their
builders are wrapped in place as the ``actions.tables`` span.  Helpers inside
a module are not wrapped: their time is the self time of the entry point
that called them.  ``uninstall()`` puts every original back.

Spans are kept in memory: name, start, end, parent, request id and a few
counts.  A span's self time is its duration minus the durations of its
direct children, which nest strictly because the benchmark is one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict
from functools import cached_property

TABLE_PROPERTIES = ("_k_mul_table", "_k_inv_table", "_k_act_table",
                    "orbit_masks")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.info = None

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request": self.request, "info": self.info}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None
        self._restore = []

    # -- recording ----------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.request))
        self._stack.append(index)
        return index

    def close(self, index, info=None):
        self.spans[index].end = time.perf_counter()
        self.spans[index].info = info
        self._stack.pop()

    # -- installation -------------------------------------------------------

    def install(self):
        from spinwreath.actions import WreathContext

        for module_name, _, _ in ENTRY_POINTS:
            importlib.import_module("spinwreath." + module_name)
        modules = [m for name, m in sys.modules.items()
                   if name == "spinwreath" or name.startswith("spinwreath.")]
        for module_name, func_name, counter in ENTRY_POINTS:
            original = getattr(sys.modules["spinwreath." + module_name],
                               func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original,
                                 counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        for prop in TABLE_PROPERTIES:
            original = WreathContext.__dict__[prop]
            wrapped = cached_property(self._wrap_table(original.func))
            wrapped.__set_name__(WreathContext, prop)
            setattr(WreathContext, prop, wrapped)
            self._restore.append((WreathContext, prop, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counter.before(args, kwargs) if counter else None
            index = self.open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                info = (counter.after(args, kwargs, before, result, error)
                        if counter else None)
                self.close(index, info)
        return wrapper

    def _wrap_table(self, build):
        @functools.wraps(build)
        def wrapper(ctx):
            rss = _maxrss_kb()
            index = self.open("actions.tables")
            try:
                return build(ctx)
            finally:
                self.close(index, {"maxrss_kb": _maxrss_kb() - rss})
        return wrapper

    # -- output -------------------------------------------------------------

    def self_times(self):
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return [span.end - span.start - child
                for span, child in zip(self.spans, child_time)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(index)) + "\n")


def _maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# counts recorded at the wrapped boundaries
# ---------------------------------------------------------------------------

class _Argument:
    """Records one argument of the call, such as the strategy's length."""

    def __init__(self, key, position, name, measure):
        self.key, self.position, self.name = key, position, name
        self.measure = measure

    def before(self, args, kwargs):
        return None

    def after(self, args, kwargs, before, result, error):
        value = (args[self.position] if len(args) > self.position
                 else kwargs[self.name])
        return {self.key: self.measure(value)}


_MOVES = _Argument("moves", 1, "strategy", len)
_TRIALS = _Argument("trials", 1, "trials", int)


class _SearchStates:
    """States explored, read from the caller's SearchStats.

    When the caller passes none, one is supplied; search_belief_path makes
    a fresh one itself in that case, so the search is unchanged.
    """

    def before(self, args, kwargs):
        from spinwreath.synthesis import SearchStats

        if kwargs.get("stats") is None:
            kwargs["stats"] = SearchStats()
        return kwargs["stats"].states_explored

    def after(self, args, kwargs, before, result, error):
        stats = kwargs["stats"]
        # on BudgetExceeded the stats already hold the states it reports
        return {"states": stats.states_explored - before,
                "exhausted": error is None and result is None
                and stats.exhausted}


# (module, function, counter): the public entry points of each layer
ENTRY_POINTS = [
    ("cli", "main", None),
    ("puzzle_parser", "parse_puzzle", None),
    ("puzzle_parser", "parse_expr", None),
    ("puzzle_parser", "build_context", None),
    ("fileio", "load_strategy", None),
    ("strategies", "verify", _MOVES),
    ("synthesis", "search_belief_path", _SearchStates()),
    ("synthesis", "construct_pgroup", None),
    ("decision", "decide_existence", None),
    ("decision", "find_nonexistence_certificate", None),
    ("decision", "validate_certificate", None),
    ("decision", "min_spin_period", None),
    ("groups", "normal_subgroups", None),
    ("groups", "all_subgroups", None),
    ("groups", "quotient", None),
    ("groups", "subgroup_as_group", None),
    ("analysis", "exact_expected_moves", _MOVES),
    ("analysis", "monte_carlo_random_play", _TRIALS),
    ("analysis", "non_backtracking_expectation", _TRIALS),
    ("analysis", "random_play_expectation", None),
    ("analysis", "enumerate_strategies", None),
]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> the span names whose self time it sums, per request
SELF_MS = {
    "cli.self_ms": ("cli.main",),
    "puzzle_parser.parse_puzzle.self_ms": (
        "puzzle_parser.parse_puzzle", "puzzle_parser.parse_expr",
        "puzzle_parser.build_context"),
    "fileio.load_strategy.self_ms": ("fileio.load_strategy",),
    "actions.tables.self_ms": ("actions.tables",),
    "strategies.verify.self_ms": ("strategies.verify",),
    "synthesis.search_belief_path.self_ms": ("synthesis.search_belief_path",),
    "synthesis.construct_pgroup.self_ms": ("synthesis.construct_pgroup",),
    "decision.find_nonexistence_certificate.self_ms": (
        "decision.find_nonexistence_certificate",),
    "decision.validate_certificate.self_ms": ("decision.validate_certificate",),
    "groups.self_ms": ("groups.normal_subgroups", "groups.all_subgroups",
                       "groups.quotient", "groups.subgroup_as_group"),
    "analysis.exact_expected_moves.self_ms": ("analysis.exact_expected_moves",),
    "analysis.enumerate_strategies.self_ms": ("analysis.enumerate_strategies",),
}

# CLI payload message of `decide` -> decision path
DECISION_PATHS = {
    "nonexistence certificate found": "certificate",
    "p-group construction": "pgroup",
    "belief search found a strategy": "search",
    "belief graph exhausted": "search",
}

UNITS = {
    "actions.tables.rss_delta_mb": "MB",
    "strategies.verify.us_per_move": "us",
    "strategies.verify.us_per_call": "us",
    "strategies.verify.calls": "1/req",
    "synthesis.search_belief_path.states": "1/req",
    "synthesis.search_belief_path.states_per_s": "1/s",
    "decision.cert_leaf.useful_ratio": "ratio",
    "decision.path.certificate": "1/req",
    "decision.path.pgroup": "1/req",
    "decision.path.search": "1/req",
    "analysis.exact_expected_moves.us_per_move": "us",
    "analysis.monte_carlo_random_play.trials_per_s": "1/s",
    "analysis.non_backtracking_expectation.trials_per_s": "1/s",
    "trace.overhead_share": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, requests, paths, scales):
    """Per-layer values from the spans of ``requests`` traced requests.

    ``paths`` counts decision paths by name, read from CLI payloads.
    Times are at reference speed: the self time of a span of request ``i``
    is divided by ``scales[i]`` (see ``speed.py``).
    """
    spans = tracer.spans
    own = [t / scales[span.request]
           for span, t in zip(spans, tracer.self_times())]
    self_by_name = defaultdict(float)
    calls = defaultdict(int)
    totals = defaultdict(float)
    for span, self_time in zip(spans, own):
        self_by_name[span.name] += self_time
        calls[span.name] += 1
        info = span.info or {}
        if span.name == "actions.tables":
            parent = span.parent
            if parent is None or spans[parent].name != "actions.tables":
                totals["rss_kb"] += info["maxrss_kb"]
        elif span.name == "strategies.verify":
            totals["verify_moves"] += info["moves"]
        elif span.name == "analysis.exact_expected_moves":
            totals["expect_moves"] += info["moves"]
        elif span.name in ("analysis.monte_carlo_random_play",
                           "analysis.non_backtracking_expectation"):
            totals[span.name + ".trials"] += info["trials"]
        elif span.name == "synthesis.search_belief_path":
            totals["states"] += info["states"]
            if _under(spans, span, "decision.find_nonexistence_certificate"):
                totals["leaf_attempts"] += 1
                totals["leaf_useful"] += info["exhausted"]

    out = {name: 1e3 * sum(self_by_name[s] for s in sources) / requests
           for name, sources in SELF_MS.items()}
    verify_s = self_by_name["strategies.verify"]
    search_s = self_by_name["synthesis.search_belief_path"]
    expect_s = self_by_name["analysis.exact_expected_moves"]
    out.update({
        "actions.tables.rss_delta_mb": totals["rss_kb"] / 1024,
        "strategies.verify.us_per_move": 1e6 * _ratio(verify_s,
                                                      totals["verify_moves"]),
        "strategies.verify.us_per_call": 1e6 * _ratio(
            verify_s, calls["strategies.verify"]),
        "strategies.verify.calls": calls["strategies.verify"] / requests,
        "synthesis.search_belief_path.states": totals["states"] / requests,
        "synthesis.search_belief_path.states_per_s": _ratio(totals["states"],
                                                            search_s),
        "decision.cert_leaf.useful_ratio": _ratio(totals["leaf_useful"],
                                                  totals["leaf_attempts"]),
        "analysis.exact_expected_moves.us_per_move": 1e6 * _ratio(
            expect_s, totals["expect_moves"]),
    })
    for name in ("analysis.monte_carlo_random_play",
                 "analysis.non_backtracking_expectation"):
        out[name + ".trials_per_s"] = _ratio(totals[name + ".trials"],
                                             self_by_name[name])
    for path in ("certificate", "pgroup", "search"):
        out["decision.path." + path] = paths.get(path, 0) / requests
    return out


def _under(spans, span, name):
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def unit_of(metric):
    return UNITS.get(metric, "ms")
