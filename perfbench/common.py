"""Pieces shared by the workloads: ops, spans, per-pass records, statistics.

Everything here runs inside the worker process, next to the imported
simulator.  Host times come from ``time.perf_counter``; simulated values
come from the simulator's own outputs.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cryocam.tcam import (
    SearchKey,
    calibrate_exact_bias,
    ml_voltage_closed_form,
    search_energy,
    search_exact,
    store_word,
)

_NO_SPAN = nullcontext()


@dataclass
class Op:
    """One closed-loop step: ``call`` is timed, ``check`` is not.

    ``kind`` is "bulk" (the workload's heavy write/solve side, measured as
    units per second) or "op" (the interactive side, measured per call).
    ``check`` returns a list of problems; an empty list means the oracle
    accepted the output.  ``group`` ties ops that make up one larger unit,
    such as one pass of the seven light CLI subcommands.
    """

    kind: str
    name: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], list]
    group: object = None


class Tracer:
    """Spans around the benchmark's calls into cryocam, held in memory.

    Each span records its name, start, end, parent span, the op it
    belongs to and a unit count (rows, chars, points, ...).  When
    ``enabled`` is false, ``span`` hands out a shared no-op context, so
    untraced passes run the same code with nothing recorded.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.op_id = None
        self.records = []
        self._stack = []

    def span(self, name: str, units: int = 1):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, units)

    def write_jsonl(self, path):
        """Write every span, with its self time, as one JSON object a line."""
        child_time = {}
        for rec in self.records:
            if rec["parent"] is not None:
                child_time[rec["parent"]] = (
                    child_time.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
                )
        with open(path, "w", encoding="utf-8") as f:
            for rec in sorted(self.records, key=lambda r: r["id"]):
                duration = rec["end"] - rec["start"]
                line = dict(rec, self_s=duration - child_time.get(rec["id"], 0.0))
                f.write(json.dumps(line) + "\n")

    def by_name(self) -> dict:
        """name -> (durations in s, unit counts), in recording order."""
        out = {}
        for rec in self.records:
            durations, units = out.setdefault(rec["name"], ([], []))
            durations.append(rec["end"] - rec["start"])
            units.append(rec["units"])
        return out


class _Span:
    __slots__ = ("tracer", "name", "units", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, units: int):
        self.tracer = tracer
        self.name = name
        self.units = units

    def __enter__(self):
        t = self.tracer
        self.id = len(t.records) + len(t._stack)
        self.parent = t._stack[-1] if t._stack else None
        t._stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.records.append(
            {
                "id": self.id,
                "parent": self.parent,
                "op": t.op_id,
                "name": self.name,
                "start": self.start,
                "end": end,
                "units": self.units,
            }
        )
        return False


class PassRecord:
    """What one pass produced: input-derived counts, simulated statistics
    and a SHA-256 over every simulated output, in order."""

    def __init__(self):
        self.metrics = {}
        self._hash = hashlib.sha256()

    def add(self, key: str, value):
        self.metrics[key] = self.metrics.get(key, 0) + value

    def feed(self, *values):
        """Hash values by ``repr`` (exact for floats) or as raw bytes."""
        for v in values:
            self._hash.update(v if isinstance(v, bytes) else repr(v).encode())
            self._hash.update(b"\x1f")

    def digest(self) -> str:
        return self._hash.hexdigest()


def total_rate(records: list, kind: str) -> float:
    """Units over seconds, summed over the timed ops of ``kind``."""
    ops = [r for r in records if r["kind"] == kind]
    return sum(r["units"] for r in ops) / sum(r["seconds"] for r in ops)


def median(values) -> float:
    return float(np.median(values))


def median_ms(spans: dict, name: str) -> float:
    """Median span duration in ms, 0 when the span never ran traced."""
    durations, _ = spans.get(name, ([], []))
    return median(durations) * 1e3 if durations else 0.0


def per_unit(spans: dict, name: str, scale: float = 1.0) -> float:
    """Total span time over total span units, times ``scale``."""
    durations, units = spans.get(name, ([], []))
    return scale * sum(durations) / sum(units) if durations else 0.0


def paper_reference_errors(cfg) -> dict:
    """Relative error of the simulator against the paper's reference values
    that the acceptance suite pins: 89.4 fJ per 10 kbit and 44.7 fJ per
    5 kbit comparison at 50 % match, and the 1.36 / 26.5 aJ calibrated
    binary / ternary average search energies."""
    i_hd = cfg["i_rwl_hd_uA"] * 1e-6
    t_search = cfg["t_search_ns"] * 1e-9
    out = {}
    for bits, ref, name in ((10000, 89.4e-15, "10kbit"), (5000, 44.7e-15, "5kbit")):
        v_ml = ml_voltage_closed_form(bits, bits // 2, i_hd)
        energy = search_energy(v_ml, bits, i_hd, t_search)
        out[f"sim.err.energy_{name}"] = abs(energy - ref) / ref

    array = cfg.make_array(2, 1)
    store_word(array, 0, "0")
    store_word(array, 1, "1")
    calibrate_exact_bias(array, 1.36e-18, 26.5e-18)
    energies = {
        (key, row): res.energy
        for key in ("0", "1", "d")
        for row, res in enumerate(search_exact(array, SearchKey(key)))
    }
    binary = sum(e for (key, _), e in energies.items() if key != "d") / 4.0
    ternary = sum(energies.values()) / 6.0
    out["sim.err.binary_avg"] = abs(binary - 1.36e-18) / 1.36e-18
    out["sim.err.ternary_avg"] = abs(ternary - 26.5e-18) / 26.5e-18
    return out
