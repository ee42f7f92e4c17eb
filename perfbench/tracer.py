"""Span tracer for the wittcoh functions whose cost the benchmark attributes.

Each traced function is replaced, in every wittcoh module and class that
holds it (``extensions`` imports ``pth_power`` by name, for example), by a
wrapper that records one span per call: name, start, end and the index of
the enclosing traced span.  Spans stay in memory until ``write_spans``;
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import zlib

import numpy as np

PACKAGE = "wittcoh"

# (module, attribute) of every traced function.  The layer name is
# "<module>.<function>", e.g. "gfp.rref" for PrimeField.rref.
TARGETS = (
    ("gfp", "PrimeField.rref"),
    ("witt", "pth_power"),
    ("witt", "pth_power_via_derivation"),
    ("witt", "bracket"),
    ("ordinary", "delta1_matrix"),
    ("ordinary", "delta2_matrix"),
    ("ordinary", "delta2_block"),
    ("restricted", "delta2_res_matrix"),
    ("restricted", "restricted_h2"),
    ("restricted", "star_correction"),
    ("restricted", "starstar_correction"),
    ("restricted", "eval_omega"),
    ("extensions", "verify_restricted_axioms"),
    ("extensions", "build_extension"),
    ("extensions", "classify_extension"),
    ("extensions", "cohomologous"),
    ("verify", "run_prime"),
    ("verify", "dims_summary"),
)

LAYERS = tuple(f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attr in TARGETS)


def _resolve(module: str, attr: str):
    """The function a target names, as its module or class holds it now."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[leaf]


def _namespaces():
    """Every loaded wittcoh module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent span index or -1]
        self.rref_inputs: list[tuple] = []  # (cells, input fingerprint) per rref call
        self._stack: list[int] = []
        self._originals: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def install(self) -> None:
        for (module, attr), layer in zip(TARGETS, LAYERS):
            original = _resolve(module, attr)
            probe = self._rref_probe if layer == "gfp.rref" else None
            self._originals[id(original)] = (original, self._wrap(layer, original, probe))
        for owner in _namespaces():
            for key, value in list(vars(owner).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, key, entry[1])
                    self._patches.append((owner, key, value))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def restored(self) -> bool:
        """True when no wrapper of this tracer is reachable from a wittcoh namespace."""
        wrappers = {id(w) for _, w in self._originals.values()}
        return not any(
            id(value) in wrappers for owner in _namespaces() for value in vars(owner).values()
        )

    def unwrapped_aliases(self) -> list[str]:
        """Names under which an original traced function is still reachable."""
        found = []
        for owner in _namespaces():
            for key, value in vars(owner).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    found.append(f"{owner.__name__}.{key}")
        return found

    def _rref_probe(self, field, m, *args, **kwargs) -> None:
        a = np.ascontiguousarray(m, dtype=np.int64)
        fingerprint = (field.p, a.shape, zlib.crc32(a), zlib.adler32(a))
        self.rref_inputs.append((a.size, fingerprint))

    def _wrap(self, layer: str, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(*args, **kwargs)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def layer_stats(self) -> dict[str, float]:
        """Per-layer metrics named "<module>.<function>.<stat>".

        A span's self time is its duration minus the durations of the traced
        spans directly inside it.  ``gfp.rref.distinct_frac`` is the share of
        ``rref`` calls whose input had not been seen before in this process.
        """
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (layer, start, end, _), nested in zip(self.spans, inner):
            calls[layer] += 1
            self_s[layer] += end - start - nested
        stats: dict[str, float] = {}
        for layer in LAYERS:
            stats[f"{layer}.calls"] = calls[layer]
            stats[f"{layer}.self_s"] = self_s[layer]
        cells = [c for c, _ in self.rref_inputs]
        stats["gfp.rref.cells"] = sum(cells)
        stats["gfp.rref.max_cells"] = max(cells, default=0)
        stats["gfp.rref.distinct_frac"] = len({f for _, f in self.rref_inputs}) / len(cells) if cells else 1.0
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

