"""Per-layer spans recorded from outside ``morgan``.

``install`` wraps the public functions of each module and rebinds every
name in the ``morgan`` package that refers to them, so calls through
``from .x import f`` bindings are seen too.  Spans stay in memory with their
parent span and the operation they belong to; ``write`` dumps them when the
run ends.  A layer's self time is its span duration minus the time its child
spans cover; its total time counts only the outermost span when the layer
calls itself.  Spans are timed with the clock given to ``Tracer``, which
leaves out the time of the benchmark's speed sampler.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# layer name -> (module, attribute path) targets; one layer may group several
LAYERS = {
    "cli.main": [("cli", "main")],
    "cli.cmd_solve": [("cli", "cmd_solve")],
    "cli.cmd_verify": [("cli", "cmd_verify")],
    "fileio.load_system": [("fileio", "load_system")],
    "fileio.load_solution": [("fileio", "load_solution")],
    "fileio.solution_to_dict": [("fileio", "solution_to_dict")],
    "fileio.dump_json": [("fileio", "dump_json")],
    "canonical.to_pencil_form": [("canonical", "to_pencil_form")],
    "admissible.enumerate_tuples": [("admissible", "enumerate_tuples")],
    "admissible.enumerate_row_configs": [("admissible", "enumerate_row_configs")],
    "decouple.solve": [("decouple", "solve")],
    "decouple.make_square_system": [("decouple", "make_square_system")],
    "decouple.square_decouple": [("decouple", "square_decouple")],
    "decouple.compose_final": [("decouple", "compose_final")],
    "squaring.build_QB": [("squaring", "build_QB")],
    "squaring.decouplability_search": [("squaring", "decouplability_search")],
    "squaring.dtilde_hc": [("squaring", "dtilde_hc")],
    "squaring.solve_feedback_rows": [("squaring", "solve_feedback_rows")],
    "squaring.assemble_squaring": [("squaring", "assemble_squaring")],
    "paramalg.solve_zero_constraints": [("paramalg", "solve_zero_constraints")],
    "paramalg.ConstraintSet.apply": [("paramalg", "ConstraintSet.apply")],
    "paramalg.instantiate": [("paramalg", "instantiate")],
    "paramalg.generic_rank": [("paramalg", "generic_rank")],
    "exactalg.elimination": [("exactalg", "RationalMatrix." + m)
                             for m in ("rank", "inverse", "solve", "nullspace")],
    "exactalg.resolvent": [("exactalg", "resolvent")],
    "exactalg.transfer_function": [("exactalg", "transfer_function")],
    "zeros.uncontrollable_polynomial": [("zeros", "uncontrollable_polynomial")],
    "zeros.unobservable_polynomial": [("zeros", "unobservable_polynomial")],
    "zeros.fixed_pole_report": [("zeros", "fixed_pole_report")],
    "zeros.assign_zeros": [("zeros", "assign_zeros")],
}


def _search_counts(counts, args, report):
    counts["squaring.search.candidates"] += report.candidates_tried
    counts["squaring.search.successes"] += bool(report.success)


def _rank_counts(counts, args, rank):
    m = args[0]
    counts["paramalg.generic_rank.full"] += rank == min(m.rows, m.cols)


# counts read from the objects a layer returns
COUNTERS = {
    "squaring.decouplability_search": _search_counts,
    "paramalg.generic_rank": _rank_counts,
}


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []  # (op, layer, parent span index or -1, start, end)
        self.op = -1  # index of the operation the open spans belong to
        self._stack = []  # [span index, child time] of the open spans
        self._active = {name: 0 for name in LAYERS}
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        self.total_s = {name: 0.0 for name in LAYERS}
        self.counts = {"squaring.search.candidates": 0, "squaring.search.successes": 0,
                       "paramalg.generic_rank.full": 0}

    def wrap(self, layer, fn):
        count = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            if not self._stack:  # a root span starts the next operation
                self.op += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self._stack.append(frame)
            self._active[layer] += 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self._active[layer] -= 1
                took = end - start
                if self._stack:
                    self._stack[-1][1] += took
                self.spans[index] = (self.op, layer, parent, start, end)
                self.calls[layer] += 1
                self.self_s[layer] += took - frame[1]
                if not self._active[layer]:
                    self.total_s[layer] += took
            if count:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer target and rebind all names that refer to it."""
        package = [mod for name, mod in sys.modules.items()
                   if name == "morgan" or name.startswith("morgan.")]
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                module = sys.modules["morgan." + module_name]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self.wrap(layer, cls.__dict__[attr]))
                    continue
                original = getattr(module, path)
                traced = self.wrap(layer, original)
                for mod in package:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, traced)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (op, layer, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "op": op, "layer": layer,
                                     "parent": parent, "start": start, "end": end}))
                fh.write("\n")
