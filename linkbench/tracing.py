"""Thread-aware spans around fomlink's public functions, recorded from outside the package.

`installed` wraps each traced function and puts the wrapper into every
``fomlink`` module namespace that holds the original.  Modules import these
names with ``from .phy import ...``, so patching the defining module alone
would miss the engine's calls.  Spans stay in memory; `self_times` turns them
into per-function call counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, NamedTuple

TRACED = (
    "cli.main",
    "scenario.run_monte_carlo",
    "system.build_frequency_plan",
    "system.validate_config",
    "codec.map_index",
    "codec.demap_symbol",
    "codec.constellation",
    "phy.synthesize_block",
    "phy.apply_phase_rotation",
    "phy.apply_carrier_freq_error",
    "phy.awgn",
    "phy.matched_filter_bank",
    "phy.detect_joint_ml",
    "phy.detect_two_stage",
    "phy.brute_force_oracle",
    "ofdm.modulate_frame",
    "ofdm.frame_awgn",
    "ofdm.demodulate_frame",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None  # innermost open span on the same thread
    thread: int


class LayerStat(NamedTuple):
    calls: int
    self_s: float


class Tracer:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, ids, local, clock, get_ident = self.spans, self._ids, self._local, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, get_ident()))

        return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route every reference to the TRACED functions through ``tracer`` until exit."""
    pairs = []
    for qualified in TRACED:
        module_name, attr = qualified.split(".")
        original = getattr(importlib.import_module(f"fomlink.{module_name}"), attr)
        pairs.append((original, tracer.wrap(qualified, original)))
    patched = []
    for module_name, module in list(sys.modules.items()):
        if module is None or (module_name != "fomlink" and not module_name.startswith("fomlink.")):
            continue
        for attr, value in list(vars(module).items()):
            for original, wrapper in pairs:
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def _coverage(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span], names=TRACED) -> dict[str, LayerStat]:
    """Calls and self time per name; self time = duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    calls = dict.fromkeys(names, 0)
    own = dict.fromkeys(names, 0.0)
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        covered = _coverage(span.start, span.end, children.get(span.id, ()))
        own[span.name] = own.get(span.name, 0.0) + (span.end - span.start) - covered
    return {name: LayerStat(calls[name], own[name]) for name in calls}


def write_spans(spans: list[Span], out) -> None:
    out.write("id,name,start,end,parent,thread\n")
    for s in spans:
        out.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{'' if s.parent is None else s.parent},{s.thread}\n")
