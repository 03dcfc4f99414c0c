"""Spans around the public functions of the nukc modules.

A span records (name, start, end, parent, operation id).  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its child spans; calls are synchronous and
single-threaded, so children never overlap.

`from .model import solve_fractional` copies a function into other modules,
so each target is patched in every nukc module whose attribute *is* the
original, and installing fails if any module still holds an original.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# The CLI's functions are not spans: each operation's root span is cli.main,
# whose self time is `cli.self_s`.
ROOT_MODULE = "nukc.cli"

# Private functions that carry a counter the layer table names.
EXTRA = {"solvers._window_lp_feasible"}

# Constant-time helpers called from inner loops: a span there costs more
# than the work it times, so their time stays with the caller.
UNTRACED = {"model.var_index", "solvers.ilog", "solvers.iterated_log", "embed.lift_radius"}

# Self-time metrics: metric name -> the functions whose self time it sums.
# Wrapped functions not listed here add to `other.self_s`.
SELF_TIME = {
    "lp.solve_s": ("lp.solve", "lp.format_lp"),
    "model.build_lp_s": ("model.build_nukc_lp",),
    "model.search_s": ("model.min_feasible_dilation", "model.solve_fractional"),
    "model.candidates_s": ("model.candidate_dilations",),
    "model.check_s": ("model.validate_solution", "model.achieved_dilation"),
    "model.compress_s": ("model.compress_radii", "model.lift_compressed_solution"),
    "model.coverage_s": ("model.coverage",),
    "solvers.guess_s": ("solvers.solve_guess_q", "solvers._window_lp_feasible"),
    "solvers.greedy_s": ("solvers.charikar_kcwo", "solvers.charikar_kcwo_search"),
    "solvers.bottom_heavy_s": ("solvers.round_bottom_heavy",),
    "solvers.kcwo_s": ("solvers.solve_kcwo",),
    "solvers.two_radii_s": ("solvers.solve_two_radii", "solvers.zero_dilation_solution"),
    "bicriteria.enum_s": ("bicriteria.enum_solve", "bicriteria.enum_parameters"),
    "bicriteria.guess_lp_build_s": ("bicriteria.build_guess_lp",),
    "bicriteria.min_level_s": ("bicriteria.min_level",),
    "embed.embed_s": ("embed.embed", "embed.embed_basic", "embed.embed_barrier"),
    "embed.lift_s": ("embed.lift_tree_solution",),
    "rmfct.lp_build_s": ("rmfct.build_rmfct_lp", "rmfct.solve_rmfct_lp"),
    "rmfct.round_s": ("rmfct.round_depth2", "rmfct.round_loose"),
    "metric.validate_s": ("metric.validate_metric",),
    "metric.gonzalez_s": ("metric.gonzalez_kcenter",),
    "fileio.load_s": ("fileio.load",),
    "fileio.parse_s": ("fileio.instance_from_obj", "fileio.solution_from_obj"),
    "fileio.dump_s": ("fileio.dump", "fileio.instance_to_obj", "fileio.solution_to_obj"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _lp_solve(c, args, kwargs, res):
    problem = _arg(args, kwargs, 0, "problem")
    c["lp.solves"] += 1
    c["lp.rows"] += len(problem.constraints)
    c["lp.cols"] += problem.num_vars
    c["lp.infeasible"] += res.status == "infeasible"


def _probe(c, args, kwargs, res):
    c["model.search_probes"] += 1
    c["model.probes_feasible"] += res is not None


def _guess_probe(c, args, kwargs, res):
    c["solvers.guess_probes"] += 1
    c["solvers.guess_hits"] += res[0] is not None


def _greedy(c, args, kwargs, res):
    c["solvers.greedy_radii"] += 1
    c["solvers.greedy_hits"] += res is not None


def _enum(c, args, kwargs, res):
    c["bicriteria.solves"] += 1
    c["bicriteria.nodes"] += res.nodes_explored
    c["bicriteria.short_circuits"] += bool(res.short_circuit)
    c["bicriteria.fallbacks"] += bool(res.used_fallback)


def _embed(c, args, kwargs, res):
    c["embed.calls"] += 1
    c["embed.tree_nodes"] += res.tree.num_nodes


def _load(c, args, kwargs, res):
    c["fileio.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _calls(counter):
    def hook(c, args, kwargs, res):
        c[counter] += 1

    return hook


def _candidates(c, args, kwargs, res):
    c["model.candidates"] += len(res)


# Counters taken at the same boundaries as the spans.
HOOKS = {
    "lp.solve": _lp_solve,
    "model.build_nukc_lp": _calls("model.build_lp_calls"),
    "model.solve_fractional": _probe,
    "model.candidate_dilations": _candidates,
    "solvers._window_lp_feasible": _guess_probe,
    "solvers.charikar_kcwo": _greedy,
    "bicriteria.enum_solve": _enum,
    "embed.embed": _embed,
    "metric.validate_metric": _calls("metric.validate_calls"),
    "fileio.load": _load,
}

# (name, unit, better) of every per-layer metric, in output order.
LAYER_METRICS = [
    ("lp.solves", "count", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("lp.solve_p50_ms", "ms", "lower"),
    ("lp.infeasible_frac", "ratio", "lower"),
    ("lp.errors", "count", "lower"),
    ("lp.rows_mean", "count", "lower"),
    ("lp.cols_mean", "count", "lower"),
    ("model.build_lp_s", "s", "lower"),
    ("model.build_lp_calls", "count", "lower"),
    ("model.search_s", "s", "lower"),
    ("model.search_probes", "count", "lower"),
    ("model.probe_feasible_frac", "ratio", "higher"),
    ("model.candidates_s", "s", "lower"),
    ("model.candidates", "count", "lower"),
    ("model.check_s", "s", "lower"),
    ("model.compress_s", "s", "lower"),
    ("model.coverage_s", "s", "lower"),
    ("solvers.guess_s", "s", "lower"),
    ("solvers.guess_probes", "count", "lower"),
    ("solvers.guess_hit_frac", "ratio", "higher"),
    ("solvers.greedy_s", "s", "lower"),
    ("solvers.greedy_radii", "count", "lower"),
    ("solvers.greedy_hit_frac", "ratio", "higher"),
    ("solvers.bottom_heavy_s", "s", "lower"),
    ("solvers.kcwo_s", "s", "lower"),
    ("solvers.two_radii_s", "s", "lower"),
    ("bicriteria.enum_s", "s", "lower"),
    ("bicriteria.nodes", "count", "lower"),
    ("bicriteria.guess_lp_build_s", "s", "lower"),
    ("bicriteria.min_level_s", "s", "lower"),
    ("bicriteria.short_circuit_frac", "ratio", "higher"),
    ("bicriteria.fallback_frac", "ratio", "lower"),
    ("embed.embed_s", "s", "lower"),
    ("embed.calls", "count", "lower"),
    ("embed.tree_nodes", "count", "lower"),
    ("embed.lift_s", "s", "lower"),
    ("rmfct.lp_build_s", "s", "lower"),
    ("rmfct.round_s", "s", "lower"),
    ("metric.validate_s", "s", "lower"),
    ("metric.validate_calls", "count", "lower"),
    ("metric.gonzalez_s", "s", "lower"),
    ("fileio.load_s", "s", "lower"),
    ("fileio.parse_s", "s", "lower"),
    ("fileio.dump_s", "s", "lower"),
    ("fileio.bytes_read", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
]


def nukc_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "nukc" or name.startswith("nukc."))
    ]


def traced_functions() -> dict:
    """id(original) -> (original, "module.function") for every function a
    span wraps: the public functions defined in each nukc module but the CLI,
    plus EXTRA, minus UNTRACED."""
    out = {}
    for mod in nukc_modules():
        if mod.__name__ in ("nukc", ROOT_MODULE):
            continue
        short = mod.__name__.removeprefix("nukc.")
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if (attr.startswith("_") and name not in EXTRA) or name in UNTRACED:
                continue
            out[id(obj)] = (obj, name)
    return out


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, root_fn):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.hook_errors = Counter()
        self.op = -1
        self._stack = []
        self._wrappers = {
            key: (orig, self._wrap(name, orig))
            for key, (orig, name) in traced_functions().items()
        }
        self._patches = []
        self.root = self._wrap("cli.main", root_fn)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[2] = clock()
                stack.pop()
                self.counts[f"{name}.errors"] += 1
                raise
            rec[2] = clock()
            stack.pop()
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError):
                    self.hook_errors[name] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function while the block runs."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        for mod in nukc_modules():
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, value))
        left = [
            f"{mod.__name__}.{attr}"
            for mod in nukc_modules()
            for attr, value in vars(mod).items()
            if (entry := self._wrappers.get(id(value))) is not None and entry[0] is value
        ]
        if left:
            self._uninstall()
            raise RuntimeError(f"unpatched bindings remain: {left}")

    def _uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def self_times(self) -> dict:
        """Self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, overhead_frac: float) -> dict:
        c = self.counts
        self_t = self.self_times()
        values = {}
        listed = set()
        for metric, names in SELF_TIME.items():
            values[metric] = sum(self_t.get(n, 0.0) for n in names)
            listed.update(names)
        values["cli.self_s"] = self_t.get("cli.main", 0.0)
        values["other.self_s"] = sum(
            t for n, t in self_t.items() if n not in listed and n != "cli.main"
        )
        lp_ms = [1e3 * (e - s) for n, s, e, _, _ in self.spans if n == "lp.solve"]

        def frac(num, den):
            return c[num] / c[den] if c[den] else 0.0

        values.update({
            "lp.solves": c["lp.solves"],
            "lp.solve_p50_ms": statistics.median(lp_ms) if lp_ms else 0.0,
            "lp.infeasible_frac": frac("lp.infeasible", "lp.solves"),
            "lp.errors": c["lp.solve.errors"],
            "lp.rows_mean": frac("lp.rows", "lp.solves"),
            "lp.cols_mean": frac("lp.cols", "lp.solves"),
            "model.build_lp_calls": c["model.build_lp_calls"],
            "model.search_probes": c["model.search_probes"],
            "model.probe_feasible_frac": frac("model.probes_feasible", "model.search_probes"),
            "model.candidates": c["model.candidates"],
            "solvers.guess_probes": c["solvers.guess_probes"],
            "solvers.guess_hit_frac": frac("solvers.guess_hits", "solvers.guess_probes"),
            "solvers.greedy_radii": c["solvers.greedy_radii"],
            "solvers.greedy_hit_frac": frac("solvers.greedy_hits", "solvers.greedy_radii"),
            "bicriteria.nodes": c["bicriteria.nodes"],
            "bicriteria.short_circuit_frac": frac("bicriteria.short_circuits", "bicriteria.solves"),
            "bicriteria.fallback_frac": frac("bicriteria.fallbacks", "bicriteria.solves"),
            "embed.calls": c["embed.calls"],
            "embed.tree_nodes": c["embed.tree_nodes"],
            "metric.validate_calls": c["metric.validate_calls"],
            "fileio.bytes_read": c["fileio.bytes_read"],
            "trace_overhead_frac": overhead_frac,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
