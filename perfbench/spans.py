"""Span tracer for the benchmark's traced runs.

It replaces sislab's public functions with timing wrappers at the names each
module looks them up under (``sislab.analysis.generate``,
``sislab.schemes.lcm_evolve``, ...), so calls made inside the package are
seen without touching its source. Every call becomes one span: key, parent
span, start, end and a few numbers taken from its arguments. Spans stay in
memory until the run ends, then reduce to the per-layer metrics.

Stacks are kept per thread. ``strong_error`` and ``truncation_table`` run
their chunks on a thread pool, so a span that opens on a thread with no open
span of its own takes as parent the innermost open span of the main thread,
which is the entry point that started the pool. A span's self time is its
duration minus the part of its interval that its children cover, counted per
thread (see ``_self_time``): with a pool, self times are busy times and may
add up to more than the wall time.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _note_generate(args, kwargs):
    return (_arg(args, kwargs, 0, "base_seed"), _arg(args, kwargs, 1, "path_index"),
            _arg(args, kwargs, 3, "fine_steps"))


def _note_kernel(args, kwargs):
    return _arg(args, kwargs, 1, "dw").shape  # (rows, steps)


# (module, attribute, span key, argument note); a key may sit at several sites.
SITES = (
    ("sislab.cli", "main", "cli.main", None),
    ("sislab.cli", "parse_config", "cli.parse_config", None),
    ("sislab.cli", "strong_error", "analysis.entry", None),
    ("sislab.cli", "fit_rate", "analysis.entry", None),
    ("sislab.cli", "truncation_table", "analysis.entry", None),
    ("sislab.analysis", "milstein_violation_fraction", "analysis.entry", None),
    ("sislab.cli", "classify_dynamics", "analysis.classify_dynamics", None),
    ("sislab.cli", "write_error_table", "analysis.writers", None),
    ("sislab.cli", "write_rate_fit", "analysis.writers", None),
    ("sislab.cli", "write_truncation_table", "analysis.writers", None),
    ("sislab.cli", "write_dynamics_summary", "analysis.writers", None),
    ("sislab.analysis", "generate", "paths.generate", _note_generate),
    ("sislab.cli", "generate", "paths.generate", _note_generate),
    ("sislab.cli", "coarsen", "paths.coarsen", None),
    ("sislab.schemes", "coarsen", "paths.coarsen", None),
    ("sislab.analysis", "lcm_evolve", "schemes.lcm_evolve", _note_kernel),
    ("sislab.schemes", "lcm_evolve", "schemes.lcm_evolve", _note_kernel),
    ("sislab.analysis", "milstein_evolve", "schemes.milstein_evolve", _note_kernel),
    ("sislab.cli", "lcm_simulate", "schemes.lcm_simulate", None),
    ("sislab.schemes", "log_coeffs", "model.log_coeffs", None),
)


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans = []  # (span id, parent id, thread, key, start, end, note)
        self.missing = []  # "module.attribute" sites that no longer exist
        self.missing_keys = set()
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._ids = itertools.count()
        self._originals = []

    def install(self):
        for module_name, attr, key, note in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                self.missing_keys.add(key)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, key, note))

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, key, note):
        spans, stacks, ids, main = self.spans, self._stacks, self._ids, self._main
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            thread = ident()
            stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, thread, key, start, end,
                              note(args, kwargs) if note else None))

        return traced


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _self_time(thread, start, end, children):
    """Self time of one span, counted per thread.

    On another thread the span is busy from its first child there to its
    last, less those children. On its own thread it is busy while none of
    its children runs and no other thread is busy for it, so time spent
    waiting on the pool is not counted.
    """
    by_thread = defaultdict(list)
    for child_thread, lo, hi in children:
        by_thread[child_thread].append((lo, hi))
    own = by_thread.pop(thread, [])
    total = 0.0
    for intervals in by_thread.values():
        lo = min(lo for lo, _ in intervals)
        hi = max(hi for _, hi in intervals)
        total += (hi - lo) - _covered(lo, hi, intervals)
        own.append((lo, hi))
    return total + (end - start) - _covered(start, end, own)


def self_times(spans):
    """Sum of self time per span key."""
    children = defaultdict(list)
    for _, parent, thread, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((thread, start, end))
    out = defaultdict(float)
    for sid, _, thread, key, start, end, _ in spans:
        out[key] += _self_time(thread, start, end, children.get(sid, ()))
    return out


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one traced workload run, as {name: (value, unit)}.

    A metric whose function could not be wrapped is None, so that a renamed
    or deleted function reads as unmeasured rather than as no work.
    """
    spans = tracer.spans
    self_s = self_times(spans)
    notes = defaultdict(list)
    for _, _, _, key, _, _, note in spans:
        notes[key].append(note)

    gen = notes["paths.generate"]
    normals = sum(steps for _, _, steps in gen)
    longest = {}
    for seed, index, steps in gen:
        longest[seed, index] = max(steps, longest.get((seed, index), 0))

    def kernel(key):
        shapes = notes[key]
        path_steps = sum(rows * steps for rows, steps in shapes)
        dispatched = sum(steps for _, steps in shapes)
        return {
            f"{key}.self_s": (self_s[key], "s", key),
            f"{key}.path_steps": (path_steps, "count", key),
            f"{key}.ns_per_path_step": (_ratio(self_s[key], path_steps, 1e9), "ns", key),
            f"{key}.mean_width": (_ratio(path_steps, dispatched), "paths", key),
        }

    blocks = [rows * steps * 8 / 1e6
              for key in ("schemes.lcm_evolve", "schemes.milstein_evolve")
              for rows, steps in notes[key]]
    table = {
        "paths.generate.calls": (len(gen), "count", "paths.generate"),
        "paths.generate.us_per_call": (_ratio(self_s["paths.generate"], len(gen), 1e6),
                                       "us", "paths.generate"),
        "paths.normals": (normals, "count", "paths.generate"),
        "paths.ns_per_normal": (_ratio(self_s["paths.generate"], normals, 1e9), "ns",
                                "paths.generate"),
        "paths.useful_draw_ratio": (_ratio(sum(longest.values()), normals), "ratio",
                                    "paths.generate"),
        "paths.coarsen.self_s": (self_s["paths.coarsen"], "s", "paths.coarsen"),
        **kernel("schemes.lcm_evolve"),
        "schemes.lcm_evolve.steps_dispatched": (
            sum(steps for _, steps in notes["schemes.lcm_evolve"]), "count",
            "schemes.lcm_evolve"),
        "schemes.lcm_simulate.self_s": (self_s["schemes.lcm_simulate"], "s",
                                        "schemes.lcm_simulate"),
        **kernel("schemes.milstein_evolve"),
        "schemes.increment_block_mb": (max(blocks, default=0.0), "MB",
                                       ("schemes.lcm_evolve", "schemes.milstein_evolve")),
        "model.log_coeffs.calls": (len(notes["model.log_coeffs"]), "count",
                                   "model.log_coeffs"),
        "model.log_coeffs.self_s": (self_s["model.log_coeffs"], "s", "model.log_coeffs"),
        "analysis.self_s": (self_s["analysis.entry"], "s", "analysis.entry"),
        "analysis.classify_dynamics.self_s": (self_s["analysis.classify_dynamics"], "s",
                                              "analysis.classify_dynamics"),
        "analysis.writers.self_s": (self_s["analysis.writers"], "s", "analysis.writers"),
        "cli.parse_config.self_s": (self_s["cli.parse_config"], "s", "cli.parse_config"),
        "cli.self_s": (self_s["cli.main"], "s", "cli.main"),
    }
    out = {}
    for name, (value, unit, keys) in table.items():
        keys = (keys,) if isinstance(keys, str) else keys
        out[name] = (None if tracer.missing_keys.intersection(keys) else value, unit)
    return out
