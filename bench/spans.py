"""In-memory timing spans around molphase's public functions.

The library modules call each other through module attributes
(``qcore.expm_herm``, ``probe.controlled_u``, and a module's own globals),
so replacing those attributes with timing wrappers traces every call
without editing ``src/``. A span is recorded only while a solve span is
open; calls made outside a solve (set-up, oracle checks) pass straight
through.

A span's self time is its duration minus the part of it that its child
spans cover. Summed over every span of a solve, self times add up to the
solve span's duration exactly when every child lies inside its parent and
no two siblings overlap; ``layer_totals`` reports the difference so a run
can check that. Spans recorded in one process nest by construction, so
the check can fail only on spans a child process recorded.
"""
from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

TRACED = {
    "qcore": ("expm_herm", "hermitian_eig", "require_unitary", "require_pure_state"),
    "molham": ("spectrum", "choose_tau", "load_hamiltonian"),
    "asp": ("run_asp", "trotter_step"),
    "probe": ("controlled_u", "ideal_readout", "noisy_readout", "synthesize_spectrum"),
    "ipea": ("run_ipea", "next_operator", "reconstruct", "trace_csv"),
    "nmrpulse": ("run_pulse_backend", "compile_controlled_u", "evolve_sequence"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

SOLVE = "solve"
# Parent index of the top-level spans recorded in a child process: the
# solve span that the parent process holds open around it.
REMOTE_ROOT = -2


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    solve: int


class Tracer:
    """Collects spans in memory; ``install`` swaps the wrappers in."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._solve = -1
        self._originals: dict[tuple[object, str], object] = {}

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self, package) -> None:
        if self.installed:
            return
        for mod_name, names in TRACED.items():
            module = getattr(package, mod_name)
            for name in names:
                original = getattr(module, name)
                self._originals[(module, name)] = original
                setattr(module, name, self._wrap(f"{mod_name}.{name}", original))

    def uninstall(self) -> None:
        for (module, name), original in self._originals.items():
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._solve)

        return traced

    @contextmanager
    def solve(self, solve_id: int):
        """Open the root span of one solve; library calls inside nest under it."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._solve = solve_id
        start = time.perf_counter()
        try:
            yield idx
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(SOLVE, start, end, -1, solve_id)

    def open_remote_root(self, solve_id: int) -> None:
        """In a child process: nest every top-level call under the parent's solve span."""
        self._stack[:] = [REMOTE_ROOT]
        self._solve = solve_id

    def adopt(self, child_spans, root_idx: int) -> None:
        """Append spans recorded by a child process under the open solve span."""
        offset = len(self.spans)
        for s in child_spans:
            parent = root_idx if s.parent == REMOTE_ROOT else s.parent + offset
            self.spans.append(Span(s.name, s.start, s.end, parent, s.solve))

    def dump_csv_gz(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,solve,name,start_s,end_s\n")
            for idx, s in enumerate(self.spans):
                fh.write(f"{idx},{s.parent},{s.solve},{s.name},{s.start!r},{s.end!r}\n")


def layer_totals(spans) -> tuple[int, float, float, Counter, dict, float]:
    """Aggregate closed spans.

    Returns (solves, solve seconds, unspanned seconds, calls per name,
    self seconds per name, closure error in seconds). The unspanned time is
    the self time of the solve spans; the closure error is the solve
    seconds minus every span's self time summed.
    """
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(idx)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    solves, solve_s, unspanned, total_self = 0, 0.0, 0.0, 0.0
    for idx, s in enumerate(spans):
        own = (s.end - s.start) - covered(s, [spans[c] for c in children.get(idx, ())])
        total_self += own
        if s.name == SOLVE:
            solves += 1
            solve_s += s.end - s.start
            unspanned += own
        else:
            calls[s.name] += 1
            self_s[s.name] += own
    return solves, solve_s, unspanned, calls, dict(self_s), solve_s - total_self


def covered(span, children) -> float:
    """Seconds of ``span`` that the union of ``children`` covers."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total
