"""Spans and captures recorded from outside the program.

The program is not edited: each public name is replaced, where the calling
code looks it up, by a wrapper that records a span (name, start, end,
parent) in memory.  A name that does not exist is skipped, so a later
version of the program that deletes it reports that layer as absent.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module, attribute path).  Each entry is the place the calling
# code looks the name up: the CLI imports parse_config and make_builtin by
# name, so they are wrapped in vrld.cli; the benchmark calls run_ensemble
# through the package namespace.
SITES = (
    ("potentials.gradient", "vrld.potentials", "FiniteSumObjective.gradient"),
    ("potentials.minibatch_gradient", "vrld.potentials", "FiniteSumObjective.minibatch_gradient"),
    ("potentials.minibatch_gradient_rows", "vrld.potentials", "FiniteSumObjective.minibatch_gradient_rows"),
    ("potentials.value", "vrld.potentials", "FiniteSumObjective.value"),
    ("potentials.make_builtin", "vrld.cli", "make_builtin"),
    ("samplers.run_chain", "vrld.samplers", "run_chain"),
    ("samplers.run_annealed", "vrld.samplers", "run_annealed"),
    ("samplers.run_ensemble", "vrld", "run_ensemble"),
    ("samplers.sample_index_set", "vrld.samplers", "sample_index_set"),
    ("diagnostics.moment_kl_surrogate", "vrld.diagnostics", "moment_kl_surrogate"),
    ("diagnostics.moment_w2_surrogate", "vrld.diagnostics", "moment_w2_surrogate"),
    ("diagnostics.moments_of", "vrld.diagnostics", "moments_of"),
    ("theory.kl_bound", "vrld.theory", "kl_bound"),
    ("config.parse_config", "vrld.cli", "parse_config"),
    ("cli.main", "vrld.cli", "main"),
)

RUNNERS = ("samplers.run_chain", "samplers.run_annealed", "samplers.run_ensemble")


def _resolve(module: str, path: str):
    """(owner, attribute) for ``module.path``, or None when any part is absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Patches:
    """Replaces attributes and puts the originals back on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module: str, path: str, make) -> bool:
        """Set ``module.path`` to ``make(original)``; False if the name is absent."""
        site = _resolve(module, path)
        if site is None:
            return False
        owner, attr = site
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return True

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """In-memory span recorder: one entry per call of a wrapped name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def install(self, patches: Patches, sites=SITES) -> list[str]:
        """Wrap every site that exists; returns the span names installed."""
        return [name for name, module, path in sites
                if patches.replace(module, path, lambda fn, name=name: self.wrap(name, fn))]

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest, because the program runs on one thread.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
        return {name: tuple(v) for name, v in out.items()}


class Capture:
    """Keeps what the timed call creates, for the checks that follow it:
    every objective constructed (to read its own gradient counter), every
    trace ``run_chain`` returns, and, when traced, every index stream that
    ``chain_rngs`` hands out (to count the random words drawn)."""

    def __init__(self) -> None:
        self.objectives: list = []
        self.traces: list = []
        self.index_streams: list = []

    def install(self, patches: Patches, rng_streams: bool = False) -> None:
        objectives, traces, streams = self.objectives, self.traces, self.index_streams

        def capture_init(init):
            @functools.wraps(init)
            def wrapped(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                objectives.append(obj)
            return wrapped

        def capture_result(fn, keep):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                keep(result)
                return result
            return wrapped

        patches.replace("vrld.potentials", "FiniteSumObjective.__init__", capture_init)
        patches.replace("vrld.samplers", "run_chain", lambda fn: capture_result(fn, traces.append))
        if rng_streams:
            patches.replace("vrld.samplers", "chain_rngs",
                            lambda fn: capture_result(fn, lambda pair: streams.append(pair[1])))

    def index_words(self) -> int:
        """64-bit words drawn from the captured index streams (Philox only)."""
        total = 0
        for rng in self.index_streams:
            state = rng.bit_generator.state
            if state.get("bit_generator") != "Philox":
                continue
            blocks = sum(int(c) << (64 * j) for j, c in enumerate(state["state"]["counter"]))
            if blocks:
                total += 4 * blocks - (4 - int(state["buffer_pos"]))
        return total
