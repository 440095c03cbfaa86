"""Per-layer spans, taken from outside the program.

`Tracer.install()` replaces every public function of the program's
modules (and `FramedLinkDiagram.copy`) with a wrapper that times the
call.  Calls between modules go through module attributes, so nested
wrapped calls see each other: a layer's self time is the time inside
its wrapped functions not covered by nested wrapped calls.  Private
helpers such as `_strand_owners` are not wrapped; their time counts as
self time of the wrapped function that called them.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "jsonio", "linkdiag", "intlattice", "calculus")

# function -> span group whose inclusive time is reported as <group>_s
GROUPS = {
    "jsonio.load_path": "jsonio.load",
    "jsonio.dumps": "jsonio.dump",
    "jsonio.save_path": "jsonio.dump",
    "linkdiag.linking_matrix": "linkdiag.linking_matrix",
    "linkdiag.validate_diagram": "linkdiag.validate",
    "linkdiag.require_valid": "linkdiag.validate",
    "linkdiag.descending_switch_set": "linkdiag.descending",
    "linkdiag.is_descending": "linkdiag.descending",
    "linkdiag.component_cycle": "linkdiag.descending",
    "intlattice.smith_normal_form": "intlattice.snf",
    "intlattice.determinant": "intlattice.det",
    "intlattice.inertia": "intlattice.inertia",
    "intlattice.short_vectors": "intlattice.short_vectors",
    "intlattice.diagonalizable_over_Z": "intlattice.diagonalizable",
    "calculus.build_embedding_certificate": "calculus.build",
    "calculus.verify_certificate": "calculus.verify",
    "calculus.replay": "calculus.replay",
    "calculus.unknotify": "calculus.unknotify",
    "calculus.donaldson_obstruction": "calculus.obstruction",
}
for _f in ("switch_crossing", "reverse_component", "add_split_unknot", "add_clasp",
           "add_poke", "add_kink", "insert_crossing_gadget",
           "apply_gadget_with_unknot", "blow_down_gadget", "blow_down_component"):
    GROUPS["linkdiag." + _f] = "linkdiag.rewrite"

# (metric, unit) in report order
METRICS = [
    ("cli.self_s", "s"),
    ("jsonio.load_s", "s"), ("jsonio.dump_s", "s"), ("jsonio.bytes_in", "B"),
    ("jsonio.bytes_out", "B"), ("jsonio.self_s", "s"),
    ("linkdiag.linking_matrix_s", "s"), ("linkdiag.linking_matrix_calls", "count"),
    ("linkdiag.linking_number_calls", "count"), ("linkdiag.validate_s", "s"),
    ("linkdiag.validate_calls", "count"), ("linkdiag.rewrite_s", "s"),
    ("linkdiag.rewrite_calls", "count"), ("linkdiag.copies", "count"),
    ("linkdiag.copied_crossings", "count"), ("linkdiag.descending_s", "s"),
    ("linkdiag.self_s", "s"),
    ("intlattice.snf_s", "s"), ("intlattice.snf_calls", "count"),
    ("intlattice.snf_max_bits", "bits"), ("intlattice.det_s", "s"),
    ("intlattice.inertia_s", "s"), ("intlattice.short_vectors_s", "s"),
    ("intlattice.short_vectors_calls", "count"),
    ("intlattice.short_vectors_found", "count"), ("intlattice.diagonalizable_s", "s"),
    ("intlattice.self_s", "s"),
    ("calculus.build_s", "s"), ("calculus.verify_s", "s"), ("calculus.replay_s", "s"),
    ("calculus.moves_replayed", "count"), ("calculus.lk_calls_per_move", "calls/move"),
    ("calculus.self_s", "s"), ("calculus.unknotify_s", "s"),
    ("calculus.obstruction_s", "s"),
]


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)   # "<group>_s" and "<layer>.self_s"
        self.counts = Counter()
        self.max_bits = 0
        self._open = Counter()               # group -> open spans
        self._stack = []                     # child time of each open span
        self._saved = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import importlib
        for layer in LAYERS:
            mod = importlib.import_module("surgerykit." + layer)
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(layer, layer + "." + name, fn))
        cls = importlib.import_module("surgerykit.linkdiag").FramedLinkDiagram
        self._saved.append((cls, "copy", cls.copy))
        cls.copy = self._wrap("linkdiag", "linkdiag.copy", cls.copy)

    def remove(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def _wrap(self, layer, qual, fn):
        group = GROUPS.get(qual)
        note = getattr(self, "_note_" + qual.replace(".", "_"), None)
        clock = time.perf_counter
        stack, opened = self._stack, self._open

        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            if group is not None:
                opened[group] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.seconds[layer + ".self_s"] += dt - child
                if group is not None:
                    opened[group] -= 1
                    if not opened[group]:
                        self.seconds[group + "_s"] += dt
            self._after(qual, result)
            return result

        return wrapper

    # -- counters --------------------------------------------------------

    def _note_jsonio_load_path(self, args):
        try:
            self.counts["jsonio.bytes_in"] += os.path.getsize(args[0])
        except OSError:
            pass

    def _note_linkdiag_linking_number(self, args):
        self.counts["linkdiag.linking_number_calls"] += 1
        if self._open["calculus.replay"]:
            self.counts["replay_lk_calls"] += 1

    def _note_linkdiag_copy(self, args):
        self.counts["linkdiag.copies"] += 1
        self.counts["linkdiag.copied_crossings"] += len(args[0].crossings)

    def _after(self, qual, result):
        group = GROUPS.get(qual)
        if group in ("linkdiag.linking_matrix", "linkdiag.validate",
                     "linkdiag.rewrite", "intlattice.snf",
                     "intlattice.short_vectors"):
            self.counts[group + "_calls"] += 1
        if qual == "jsonio.dumps":
            self.counts["jsonio.bytes_out"] += len(result)
        elif qual == "intlattice.smith_normal_form":
            self.max_bits = max([self.max_bits] + [abs(x).bit_length()
                                                   for M in result for row in M for x in row])
        elif qual == "intlattice.short_vectors":
            self.counts["intlattice.short_vectors_found"] += len(result)
        elif qual == "calculus.replay":
            self.counts["calculus.moves_replayed"] += len(result.matrix_trace) - 1

    # -- report ----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Every metric of METRICS, per pass over the input cycle
        (snf_max_bits and lk_calls_per_move are not totals)."""
        out = {}
        for name, unit in METRICS:
            if name == "intlattice.snf_max_bits":
                v = self.max_bits
            elif name == "calculus.lk_calls_per_move":
                moves = self.counts["calculus.moves_replayed"]
                v = self.counts["replay_lk_calls"] / moves if moves else 0.0
            elif name.endswith("_s"):
                v = self.seconds[name] / passes
            else:
                v = self.counts[name] / passes
            out[name] = {"value": v, "unit": unit}
        return out
