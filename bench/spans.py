"""Layer tracing from outside the program, and the self-time arithmetic.

The Tracer runs inside one CLI child (bench/child.py).  After plasmonsim is
imported it replaces each traced function in every plasmonsim module
namespace that binds it (cli and config import by name), and each traced
method on its class.  A "span" function records (id, name, start, end,
parent) per call; a "count" function is hot and tiny, so it only adds to a
call count and a time total.  Spans stay in memory and are written once,
after main() returns.  Functions absent from the program are skipped and
listed, so the tracer keeps working after a refactor.

A span's self time is its duration minus the part of that interval its
child spans cover (a union: map cells run on two threads) minus the time of
counted calls made directly inside it.  The layer of a name is its module.
"""

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

SPAN, COUNT = "span", "count"

#: module -> ((function or Class.method, kind), ...); layers are the modules.
#: A counted function must not call a spanned one: its time would count twice.
TARGETS = {
    "quantities": (("require_finite", COUNT), ("require_positive", COUNT)),
    "materials": (
        ("drude_permittivity", COUNT), ("sphere_mode_frequency", COUNT),
        ("ellipsoid_mode_frequency", COUNT), ("multipole_absorption_response", COUNT),
        ("depolarization_factors", SPAN), ("dipolar_radiative_rate", SPAN)),
    "couplings": (
        ("vacuum_coupling", COUNT), ("plasmon_effective_dipole", COUNT),
        ("dipole_dipole_coupling", COUNT), ("free_space_decay", COUNT),
        ("project_couplings", COUNT), ("multipole_quench_rate", SPAN)),
    "network": (
        ("plasmon_descriptor", COUNT), ("cavity_descriptor", COUNT),
        ("emitter_descriptor", COUNT), ("build_three_mode", SPAN),
        ("build_two_mode", SPAN), ("standard_channels", SPAN)),
    "dynamics": (
        ("channel_power", COUNT), ("channel_cross_term", COUNT),
        ("quantum_yield", COUNT), ("yield_from_powers", COUNT), ("fano_detuning", COUNT),
        ("expm", COUNT), ("steady_state", SPAN), ("steady_state_sweep", SPAN),
        ("_solve_amplitudes", SPAN), ("evolve", SPAN), ("default_time_grid", SPAN),
        ("count_oscillation_maxima", SPAN), ("emission_spectrum", SPAN),
        ("eigen_branches", SPAN), ("anticrossing_metrics", SPAN)),
    "experiments": (
        ("reference_sphere_system", SPAN), ("quench_rate_calibrated", SPAN),
        ("fig_dissipation_scenario", SPAN), ("dissipation_hamiltonians", SPAN),
        ("run_fig1c", SPAN), ("fig_yield_scenario", SPAN), ("run_fig2", SPAN),
        ("map_cell", SPAN), ("enhancement_map", SPAN), ("optimal_Q", SPAN),
        ("calibrate_fig3_couplings", SPAN), ("fig_strong_coupling_scenario", SPAN),
        ("anticrossing_branches", SPAN), ("run_fig3_fig4", SPAN),
        ("Scenario.hamiltonian", SPAN), ("Scenario.bare_hamiltonian", SPAN),
        ("Scenario.channels", SPAN)),
    "config": (("parse_config", SPAN), ("parse_config_text", SPAN)),
    "results": (
        ("ResultTable.from_arrays", SPAN), ("ResultTable.write", SPAN),
        ("scenario_metadata", SPAN)),
    "cli": tuple((name, SPAN) for name in (
        "main", "cmd_fig1c", "cmd_fig2", "cmd_fig3", "cmd_fig4", "cmd_spectrum",
        "cmd_yield", "cmd_evolve", "cmd_eigen", "cmd_map", "cmd_optq", "cmd_validate")),
}


class _ThreadState:
    """Open frames and count entries of one thread: no lock on the hot path."""

    def __init__(self):
        self.stack = []  # [span id or None for a counted call, counted time inside]
        self.counts = {}  # name -> [calls, time, self time]


class Tracer:
    """Spans, counts and work tallies of one process; see the module docstring."""

    def __init__(self):
        self.names = []
        self.spans = []  # (id, name index, start, end, parent id, counted time inside)
        self.tally = defaultdict(int)  # work done, e.g. solve points and rows written
        self.missing = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states = []
        self._main = self._state()
        self._quench_args = set()
        self._traces = {}  # id(population array) -> (array, evolve span id, points)
        self._written = set()  # evolve span ids with a population in a written table

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _wrap(self, fn, name, kind):
        index = len(self.names)
        self.names.append(name)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        clock = time.perf_counter
        get_state = self._state

        if kind == COUNT:
            def counted(*args, **kwargs):
                state = get_state()
                stack = state.stack
                frame = [None, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += elapsed
                    entry = state.counts.get(name)
                    if entry is None:
                        entry = state.counts[name] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
            return counted

        def spanned(*args, **kwargs):
            stack = get_state().stack
            if stack:
                parent = stack[-1][0]
            else:  # first span of a pool thread: its parent opened the pool
                main = self._main.stack
                parent = main[-1][0] if main else 0
            sid = next(self._ids)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, index, start, end, parent, frame[1]))
            if hook is not None:
                with self._lock:
                    hook(sid, args, kwargs, result)
            return result
        return spanned

    def install(self):
        """Wrap every target in every plasmonsim namespace that binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "plasmonsim" or n.startswith("plasmonsim.")]
        for layer, targets in TARGETS.items():
            home = sys.modules.get(f"plasmonsim.{layer}")
            for qualname, kind in targets:
                name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name, None)
                    raw = cls.__dict__.get(attr) if cls is not None else None
                    if raw is None:
                        self.missing.append(name)
                        continue
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, kind)))
                    else:
                        setattr(cls, attr, self._wrap(raw, name, kind))
                    continue
                original = getattr(home, qualname, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(original, name, kind)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    # work tallies, called under the lock after a span returns --------------

    def _after_dynamics__solve_amplitudes(self, sid, args, kwargs, result):
        self.tally["solve_points"] += len(result)

    def _after_dynamics_evolve(self, sid, args, kwargs, result):
        points = len(result.times_fs)
        self.tally["propagate_points"] += points
        for array in result.populations.values():
            self._traces[id(array)] = (array, sid, points)

    def _after_dynamics_eigen_branches(self, sid, args, kwargs, result):
        self.tally["branch_points"] += len(result.sweep_values)

    def _after_couplings_multipole_quench_rate(self, sid, args, kwargs, result):
        self._quench_args.add((args, tuple(sorted(kwargs.items()))))

    def _after_results_ResultTable_from_arrays(self, sid, args, kwargs, result):
        arrays = args[3] if len(args) > 3 else kwargs["arrays"]
        for array in arrays:
            entry = self._traces.get(id(array))
            if entry is not None and entry[0] is array and entry[1] not in self._written:
                self._written.add(entry[1])
                self.tally["propagate_written_points"] += entry[2]

    def _after_results_ResultTable_write(self, sid, args, kwargs, result):
        self.tally["rows_written"] += len(args[0].rows)
        self.tally["bytes_written"] += os.path.getsize(result)

    def write(self, path):
        """Write the spans, counts and tallies of this process as JSON."""
        self.tally["quench_unique_args"] = len(self._quench_args)
        counts = {}
        for state in self._states:
            for name, (calls, elapsed, self_s) in state.counts.items():
                entry = counts.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += elapsed
                entry[2] += self_s
        payload = {
            "names": self.names,
            "spans": self.spans,
            "counts": counts,
            "tally": dict(self.tally),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# self-time arithmetic (run by the benchmark on the written spans)
# ---------------------------------------------------------------------------

def covered(intervals, start, end):
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_self_times(spans):
    """{span id: self time} for (id, name, start, end, parent, counted) records."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    return {
        sid: max(0.0, end - start - covered(children[sid], start, end) - counted)
        for sid, _, start, end, _, counted in spans
    }


def layer_self_times(spans, counts):
    """{layer: self time} from span records (with names) and count entries."""
    selfs = span_self_times(spans)
    layers = defaultdict(float)
    for sid, name, *_ in spans:
        layers[name.split(".")[0]] += selfs[sid]
    for name, (_, _, self_s) in counts.items():
        layers[name.split(".")[0]] += self_s
    return dict(layers)
