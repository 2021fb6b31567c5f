"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces each public function of every ``nuframe``
module with a recording wrapper.  Modules bind names with
``from .x import y``, so every ``nuframe.*`` module attribute that *is* a
target function is replaced, not only the defining one; otherwise calls
from ``bounds`` or ``perturb`` would bypass the span.  ``numpy.linalg.eigvalsh``
is wrapped too and recorded only when called from ``nuframe.bounds``.

A span is ``(name, start, end, parent span, job)``.  Spans stay in memory
as flat arrays and are written out once, at the end.  A span's self time is
its duration minus the durations of its direct children; the process is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "serialize", "reports", "fixtures", "lattice", "signal", "frame",
          "gamma", "bounds", "perturb")

# Public helpers left unwrapped: argument guards and codec internals that run
# thousands of times per job.  Their time counts as self time of the caller.
SKIP = {
    "lattice": {"require_point", "point_sort_key", "require_same_lattice"},
    "frame": {"require_time_domain", "require_spectral"},
    "gamma": {"sample_offsets", "phase_vector"},
    "reports": {"sig9", "file_sha256", "load_schema"},
    "cli": {"build_parser", "main"},
    "serialize": {
        "complex_to_json", "complex_from_json", "matrix_to_json", "matrix_from_json",
        "lattice_to_json", "lattice_from_json", "seq_to_json", "seq_from_json",
        "step_to_json", "step_from_json", "system_to_json", "system_from_json",
    },
}

EIGVALSH = "bounds.eigvalsh"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job = -1
        self.counts: dict = {}  # (job, counter) -> value
        self.patched: list = []  # (owner, attribute, original)
        self.present: set = set()

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, counter: str, value: float) -> None:
        key = (self.job, counter)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def wrap(self, fn, name: str, measure=None):
        nid = self._id(name)
        names, parents, jobs = self.name, self.parent, self.job_of
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if measure is not None:
                tracer.count(name + ".bytes", measure(args, result))
            return result

        return traced

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"nuframe.{layer}")
            except ModuleNotFoundError:  # a deleted layer is reported as absent
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in SKIP.get(layer, ())):
                    targets[obj] = self.wrap(obj, f"{layer}.{attr}")
                    self.present.add(f"{layer}.{attr}")
        eig = np.linalg.eigvalsh
        traced_eig = self.wrap(eig, EIGVALSH, lambda args, out: args[0].nbytes + out.nbytes)

        @functools.wraps(eig)
        def eig_from_bounds(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "nuframe.bounds":
                return traced_eig(*args, **kwargs)
            return eig(*args, **kwargs)

        targets[eig] = eig_from_bounds
        self.present.add(EIGVALSH)
        self._patch(np.linalg, "eigvalsh", eig_from_bounds)
        for modname, mod in list(sys.modules.items()):
            if modname != "nuframe" and not modname.startswith("nuframe."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(mod, attr, targets[obj])

    def _patch(self, owner, attr, value) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_job(self, jobs: int) -> tuple:
        """``(calls, self_s)``, each of shape ``(jobs, len(names))``."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        width = len(self.names)
        key = a["job"].astype(np.int64) * width + a["name"]
        calls = np.bincount(key, minlength=jobs * width).reshape(jobs, width)
        selfs = np.bincount(key, weights=own, minlength=jobs * width).reshape(jobs, width)
        return calls, selfs
