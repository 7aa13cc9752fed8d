"""Spans around calls into ionvib's public functions, recorded from the benchmark's side.

``Tracer.install`` replaces each target function, wherever an ionvib module
or class holds it, with a wrapper that records a span (name, start, end,
parent).  The program's code is unchanged; calls it makes between its own
modules (``exact.propagate`` -> ``converge_cutoffs``, ``emulate`` ->
``pulse_generator``) pass through the wrappers too, so nesting is real.
Spans stay in memory; ``layer_metrics`` derives per-layer time and self time
from them.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _schedule_counts(args, kwargs, out):
    return {"ops": len(out.ops), "virtual_ops": sum(1 for op in out.ops if op.virtual)}


def _applied_ops(schedule, cutoffs, grid_steps):
    stop = max(grid_steps)
    dim = 2**schedule.qubit_count
    for c in cutoffs:
        dim *= int(c)
    return {"ops": sum(1 for op in schedule.ops if op.step < stop), "dim": dim}


def _composed(args, kwargs, out):
    return _applied_ops(*args[:3])


def _emulated(args, kwargs, out):
    return _applied_ops(args[0], *args[2:4])


def _trajectories(args, kwargs, out):
    return {"trajectories": args[1].trajectories}


def _rows(args, kwargs, out):
    return {"schedules": len(out)}


def _targets():
    """(owner, attribute, span name, info function) for every traced call."""
    from ionvib import config, ehrenfest, emulator, estimator, exact, pulses, trace

    return [
        (config, "resolve_run_config", "config.resolve", None),
        (config.RunConfig, "spec", "model.build", None),
        (config, "write_sidecar", "config.write_sidecar", None),
        (exact, "converge_cutoffs", "exact.converge_cutoffs", None),
        (exact, "propagate", "exact.propagate", None),
        (exact, "hamiltonian_parts", "exact.hamiltonian_parts", None),
        (pulses, "build_schedule", "pulses.build_schedule", _schedule_counts),
        (pulses, "compose_ideal", "pulses.compose_ideal", _composed),
        (pulses, "pulse_generator", "pulses.pulse_generator", None),
        (pulses, "readout_populations", "pulses.readout", None),
        (emulator, "emulate", "emulator.emulate", _emulated),
        (emulator, "attach_shot_noise", "emulator.shot_noise", None),
        (ehrenfest, "ensemble_average", "ehrenfest.ensemble", _trajectories),
        (ehrenfest, "evolve_trajectory", "ehrenfest.evolve_trajectory", None),
        (estimator, "experimental_time", "estimator.experimental_time", _rows),
        (trace.PopulationTrace, "to_csv", "trace.to_csv", None),
        (trace, "read_csv", "trace.read_csv", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        rec = Span(len(self.spans), self._stack[-1] if self._stack else None, name, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.sid)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if info is not None:
                rec.info.update(info(args, kwargs, out))
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "ionvib" or n.startswith("ionvib.")]
        for owner, attr, name, info in _targets():
            fn = owner.__dict__.get(attr)
            if fn is None:  # a function a later version removed reads as 0 s
                continue
            wrapper = self._wrap(fn, name, info)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def to_json(self) -> list:
        return [
            {"id": s.sid, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end, **s.info}
            for s in self.spans
        ]


def _total(spans, name: str) -> float:
    return sum(s.dur for s in spans if s.name == name)


def _info_sum(spans, name: str, key: str) -> int:
    return sum(s.info.get(key, 0) for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans, op_span: str) -> dict:
    """Per-layer times and counts of one traced pass, by the benchmark's metric names.

    ``exact.propagate_s`` excludes a cutoff search nested inside it, so it is
    the time spent at the final cutoffs.  ``cli.other_s`` is the self time of
    the operation spans: time in the CLI not covered by any traced call.
    """
    by_id = {s.sid: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def inside(s, name):
        p = s.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    search = _total(spans, "exact.converge_cutoffs")
    nested_search = sum(s.dur for s in spans if s.name == "exact.converge_cutoffs" and inside(s, "exact.propagate"))
    final = _total(spans, "exact.propagate") - nested_search
    compose = _total(spans, "pulses.compose_ideal")
    emulate = _total(spans, "emulator.emulate")
    ensemble = _total(spans, "ehrenfest.ensemble")
    other = sum(s.dur - sum(c.dur for c in children.get(s.sid, [])) for s in spans if s.name == op_span)
    emulated_dim = max((s.info["dim"] for s in spans if s.name == "emulator.emulate"), default=0)
    return {
        "exact.converge_cutoffs_s": (search, "s"),
        "exact.search_over_final": (_ratio(search, final), "ratio"),
        "exact.propagate_s": (final, "s"),
        "exact.hamiltonian_parts_s": (_total(spans, "exact.hamiltonian_parts"), "s"),
        "pulses.compose_ideal_s": (compose, "s"),
        "pulses.compose_us_per_op": (1e6 * _ratio(compose, _info_sum(spans, "pulses.compose_ideal", "ops")), "us"),
        "pulses.pulse_generator_s": (_total(spans, "pulses.pulse_generator"), "s"),
        "pulses.readout_s": (_total(spans, "pulses.readout"), "s"),
        "pulses.build_schedule_s": (_total(spans, "pulses.build_schedule"), "s"),
        "pulses.ops": (_info_sum(spans, "pulses.build_schedule", "ops"), "count"),
        "pulses.virtual_ops": (_info_sum(spans, "pulses.build_schedule", "virtual_ops"), "count"),
        "estimator.experimental_time_s": (_total(spans, "estimator.experimental_time"), "s"),
        "estimator.schedules": (_info_sum(spans, "estimator.experimental_time", "schedules"), "count"),
        "emulator.emulate_s": (emulate, "s"),
        "emulator.us_per_pulse": (1e6 * _ratio(emulate, _info_sum(spans, "emulator.emulate", "ops")), "us"),
        "emulator.liouvillian_dim": (emulated_dim**2, "count"),
        "emulator.liouvillian_vec_bytes": (16 * emulated_dim**2, "bytes"),
        "emulator.shot_noise_s": (_total(spans, "emulator.shot_noise"), "s"),
        "ehrenfest.ensemble_s": (ensemble, "s"),
        "ehrenfest.ms_per_traj": (1e3 * _ratio(ensemble, _info_sum(spans, "ehrenfest.ensemble", "trajectories")), "ms"),
        "ehrenfest.evolve_trajectory_s": (_total(spans, "ehrenfest.evolve_trajectory"), "s"),
        "config.resolve_s": (_total(spans, "config.resolve"), "s"),
        "config.write_sidecar_s": (_total(spans, "config.write_sidecar"), "s"),
        "trace.to_csv_s": (_total(spans, "trace.to_csv"), "s"),
        "trace.read_csv_s": (_total(spans, "trace.read_csv"), "s"),
        "model.build_s": (_total(spans, "model.build"), "s"),
        "cli.other_s": (other, "s"),
    }
