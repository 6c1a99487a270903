"""Spans around calls into kerrmzi's layers, recorded from outside.

``Tracer.install`` replaces public functions of the kerrmzi modules with
timing wrappers.  The package calls its own functions through module
attributes (``analytic.sensitivity`` from ``sweep``, ``apply_loss`` from
``oracle.simulate``), so nested calls are caught as child spans.  Each
span records its name, start, end, parent span and operation; a layer's
self time is its duration minus the time of its child spans.
``analytic.sensitivity`` runs tens of thousands of times per operation, so
it is aggregated (calls, time, calling span) instead of kept as spans.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict

from kerrmzi import analytic, cli, config, oracle, sweep, verify


def state_bytes(state) -> int:
    """Bytes of a simulator state: 16 c^3 for a pure state, 16 c^6 for a
    density operator."""
    c = state.cutoff
    return 16 * (c**3 if isinstance(state, oracle.FockState) else c**6)


class Tracer:
    def __init__(self):
        self.active = False
        self._patched = []
        self._stack = []  # open frames: [span id, name, start, child seconds]
        self._next_id = 0
        self._gate_keys = set()
        self.op = None
        self.reset()

    def reset(self) -> None:
        """Drop what was recorded; gate keys stay, so a gate built earlier
        in the process stays warm."""
        self.spans = []
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.leaves = {}  # (leaf name, calling span name) -> [calls, seconds]
        self.sweep_points = 0
        self.csv_bytes = []
        self.state_bytes = 0

    # --- recording ---------------------------------------------------------

    def call(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``label``."""
        if not self.active:
            return fn(*args, **kwargs)
        frame = [self._next_id, label, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[3] += duration
            self.calls[label] += 1
            self.total_s[label] += duration
            self.self_s[label] += duration - frame[3]
            self.spans.append(
                {
                    "op": self.op,
                    "id": frame[0],
                    "parent": parent[0] if parent else None,
                    "name": label,
                    "start": frame[2],
                    "end": end,
                }
            )

    def _wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = self.call(namer(*args, **kwargs), fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _wrap_leaf(self, owner, attr, name):
        """Cheaper wrapper for hot calls without children: no span, only
        calls and seconds, per calling span."""
        fn = getattr(owner, attr)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                parent = self._stack[-1] if self._stack else None
                key = parent[1] if parent else None
                if parent is not None:
                    parent[3] += duration
                entry = self.leaves.get((name, key))
                if entry is None:
                    entry = self.leaves[(name, key)] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def suspended(self):
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    def _gate_name(self, kind, key):
        cold = key not in self._gate_keys
        self._gate_keys.add(key)
        return f"oracle.{kind}_{'cold' if cold else 'warm'}"

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch the kerrmzi functions and start recording; ``uninstall``
        undoes it, and the pair may be repeated."""
        if self._patched:
            raise RuntimeError("tracer already installed")

        def count_points(result, *args, **kwargs):
            self.sweep_points += len(result.rows)

        def count_bytes(result, sweep_result, path):
            self.csv_bytes.append(os.path.getsize(path))

        def record_state(result, *args, **kwargs):
            self.state_bytes = max(self.state_bytes, state_bytes(result))

        self._wrap(config, "parse_config", "config.parse")
        self._wrap_leaf(analytic, "sensitivity", "analytic.sensitivity")
        self._wrap(sweep, "run_sweep", "sweep.run_sweep", after=count_points)
        self._wrap(sweep.SweepResult, "write_csv", "sweep.write_csv", after=count_bytes)
        self._wrap(sweep, "find_sql_threshold", "sweep.threshold")
        self._wrap(verify, "run_analytic_suite", "verify.analytic_suite")
        self._wrap(cli, "main", lambda argv=None: f"cli.{argv[0]}")
        self._wrap(
            oracle,
            "apply_two_mode_squeezer",
            lambda state, gain, theta, i, j: self._gate_name(
                "squeezer", (gain, theta, state.cutoff)
            ),
        )
        self._wrap(
            oracle,
            "apply_beam_splitter",
            lambda state, t, i, j: self._gate_name("beam_splitter", (t, state.cutoff)),
        )
        self._wrap(oracle, "prepare_input", "oracle.prepare")
        self._wrap(oracle, "apply_kerr", "oracle.kerr")
        self._wrap(oracle, "apply_loss", "oracle.loss")
        self._wrap(oracle, "to_density", "oracle.to_density")
        self._wrap(oracle, "quadrature_stats", "oracle.readout")
        self._wrap(oracle, "simulate", "oracle.simulate", after=record_state)
        self._wrap(oracle, "numeric_slope", "oracle.numeric_slope")
        self._wrap(oracle, "oracle_qfi", "oracle.qfi")
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # --- summaries -----------------------------------------------------------

    def leaf_calls(self, name: str, parent: str | None = None) -> int:
        """Calls of a leaf; with ``parent``, only those made from spans of
        that name."""
        return sum(
            n for (leaf, p), (n, _) in self.leaves.items() if leaf == name and parent in (None, p)
        )

    def mean_s(self, name: str):
        """Mean seconds per call of a span or leaf; None if never called."""
        n, total = self.calls.get(name, 0), self.total_s.get(name, 0.0)
        for (leaf, _), (calls, seconds) in self.leaves.items():
            if leaf == name:
                n, total = n + calls, total + seconds
        return total / n if n else None

    def self_time_table(self):
        """(name, self seconds, calls), largest self time first."""
        rows = [(name, self.self_s[name], self.calls[name]) for name in self.calls]
        leaves = {}
        for (leaf, _), (calls, seconds) in self.leaves.items():
            n, total = leaves.get(leaf, (0, 0.0))
            leaves[leaf] = (n + calls, total + seconds)
        rows += [(leaf, total, n) for leaf, (n, total) in leaves.items()]
        return sorted(rows, key=lambda r: -r[1])
