"""Span tracing from outside the program: wrappers installed on the program's
call sites for the traced run only, spans kept in memory, per-layer metrics
derived from them afterwards.

Each wrapper replaces a function under the name its caller looks it up by
(for example ``nilclean.decompose.rcf``, which ``decompose_field_matrix``
calls, rather than only ``nilclean.frobenius.rcf``).  A call site that no
longer exists is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from time import perf_counter_ns

OP = "op"


def _result_len(args, result):
    return len(result) if isinstance(result, str) else None


def _rcf_blocks(args, result):
    return len(getattr(result, "blocks", ()))


def _enumerated(args, result):
    """(elements found, elements scanned) of one classifier enumeration."""
    return len(result), getattr(args[0], "size", 0) if args else 0


# (module, attribute, span name, result hook).  "Class.method" patches the
# class; "NAME[*]" patches every value of a module-level dict of callables.
CALL_SITES = (
    ("nilclean.cli", "decompose", "cli.decompose", None),
    ("nilclean.cli", "certificate_to_doc", "cli.emit", _result_len),
    ("nilclean.cli", "report_to_doc", "cli.emit", _result_len),
    ("nilclean.cli", "emit_document", "cli.emit", None),
    ("nilclean.cli", "split_documents", "cli.parse", None),
    ("nilclean.cli", "parse_document", "cli.parse", None),
    ("nilclean.cli", "certificate_from_doc", "cli.parse", None),
    ("nilclean.cli", "verify_certificate", "matrix.verify_certificate", None),
    ("nilclean.cli", "_PROPERTY_RUNNERS[*]", "classifier.predicate", None),
    ("nilclean.cli", "min_nilpotent_index_over_decompositions", "classifier.predicate", None),
    ("nilclean.classifier", "enumerate_idempotents", "classifier.enumerate_idempotents", _enumerated),
    ("nilclean.classifier", "enumerate_nilpotents", "classifier.enumerate_nilpotents", _enumerated),
    ("nilclean.decompose", "decompose_zm", "decompose.zm", None),
    ("nilclean.decompose", "decompose_prime_power", "decompose.prime_power", None),
    ("nilclean.decompose", "decompose_field_matrix", "decompose.field", None),
    ("nilclean.decompose", "lift_idempotent_matrix", "decompose.lift", None),
    ("nilclean.decompose", "rcf", "frobenius.rcf", _rcf_blocks),
    ("nilclean.decompose", "verify_certificate", "matrix.verify_certificate", None),
    ("nilclean.decompose", "matrix_crt_split", "matrix.crt", None),
    ("nilclean.decompose", "matrix_crt_recombine", "matrix.crt", None),
    ("nilclean.matrix", "RingMatrix.nilpotency_exponent", "matrix.nilpotency_exponent", None),
    ("nilclean.matrix", "RingMatrix.__matmul__", "matrix.matmul", None),
    ("nilclean.matrix", "RingMatrix.from_rows", "matrix.from_rows", None),
)

DECOMPOSE_LAYER = ("cli.decompose", "decompose.")
PREDICATE = "classifier.predicate"
ENUMERATIONS = ("classifier.enumerate_idempotents", "classifier.enumerate_nilpotents")


class Tracer:
    """In-memory spans: name, start, end (ns), parent span and operation id.
    Parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.values: dict[int, object] = {}
        self._stack = [-1]
        self._op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op = op_id
        idx = self.begin(self.name_id(OP))
        try:
            return fn(*args)
        finally:
            self.finish(idx)
            self._op = -1

    def wrap(self, fn, name: str, hook=None):
        name_id = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if hook is not None:
                tracer.values[idx] = hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Spans as gzip'd TSV: id, name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                          f"\t{self.parent[i]}\t{self.op[i]}\n")


# ---------------------------------------------------------------------------
# Installing and removing the wrappers
# ---------------------------------------------------------------------------

def install(tracer: Tracer, sites=CALL_SITES):
    """Wrap every call site that exists.  Returns (report, undo) where report
    lists (site, "wrapped" | "absent") and undo() restores the originals."""
    report, undo = [], []
    for module_name, attr, span, hook in sites:
        label = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            report.append((label, "absent"))
            continue
        if attr.endswith("[*]"):
            table = getattr(module, attr[:-3], None)
            if not isinstance(table, dict) or not table:
                report.append((label, "absent"))
                continue
            saved = dict(table)
            for key, fn in saved.items():
                table[key] = tracer.wrap(fn, span, hook)
            undo.append(lambda table=table, saved=saved: table.update(saved))
            report.append((label, "wrapped"))
            continue
        owner, _, name = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        original = inspect.getattr_static(holder, name, None) if holder is not None else None
        if original is None:
            report.append((label, "absent"))
            continue
        if isinstance(original, classmethod):
            replacement = classmethod(tracer.wrap(original.__func__, span, hook))
        elif callable(original):
            replacement = tracer.wrap(original, span, hook)
        else:
            report.append((label, "absent"))
            continue
        setattr(holder, name, replacement)
        undo.append(lambda holder=holder, name=name, original=original:
                    setattr(holder, name, original))
        report.append((label, "wrapped"))

    def restore():
        for step in reversed(undo):
            step()

    return report, restore


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def self_times(tracer: Tracer) -> list[int]:
    """Each span's duration minus the durations of its direct children (the
    interval they cover, since children of one span never overlap)."""
    start, end, parent = tracer.start, tracer.end, tracer.parent
    out = [end[i] - start[i] for i in range(len(start))]
    for i in range(len(start)):
        p = parent[i]
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def layer_totals(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, inclusive ns and self ns."""
    own = self_times(tracer)
    totals: dict[str, dict] = {}
    for i, name_id in enumerate(tracer.name):
        row = totals.setdefault(tracer.names[name_id], {"calls": 0, "incl_ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["incl_ns"] += tracer.end[i] - tracer.start[i]
        row["self_ns"] += own[i]
    return totals


def _in_decompose_layer(name: str) -> bool:
    return name == DECOMPOSE_LAYER[0] or name.startswith(DECOMPOSE_LAYER[1])


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics: counts and self times per
    operation (``ops`` of them in the traced pass) or per call, and totals
    per pass.  Metrics of a layer that did not run read 0."""
    totals = layer_totals(tracer)
    names = tracer.names
    n = len(tracer.name)
    ops = ops or 1

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_us(name):
        return totals.get(name, {}).get("self_ns", 0) / 1e3

    def per_call(name):
        return self_us(name) / calls(name) if calls(name) else 0.0

    inside = _inside_decompose(tracer)
    outer_decompose_ns = 0
    rcf_incl = 0
    predicate_of = [-1] * n
    for i in range(n):
        name = names[tracer.name[i]]
        p = tracer.parent[i]
        if _in_decompose_layer(name) and not inside[i]:
            outer_decompose_ns += tracer.end[i] - tracer.start[i]
        if name == "frobenius.rcf":
            rcf_incl += tracer.end[i] - tracer.start[i]
        if p >= 0:
            predicate_of[i] = p if names[tracer.name[p]] == PREDICATE else predicate_of[p]

    found = {"classifier.enumerate_idempotents": 0, "classifier.enumerate_nilpotents": 0}
    scanned = 0
    per_predicate: dict[int, list[int]] = {}
    blocks = 0
    emitted = 0
    for i, value in tracer.values.items():
        name = names[tracer.name[i]]
        if name in found and value is not None:
            count, size = value
            found[name] += count
            scanned += size
            slot = per_predicate.setdefault(predicate_of[i], [0, 0])
            slot[0 if name == ENUMERATIONS[0] else 1] += count
        elif name == "frobenius.rcf":
            blocks += value
        elif name == "cli.emit" and value is not None:
            emitted += value
    triples = sum(idem * idem * nil for pred, (idem, nil) in per_predicate.items() if pred >= 0)

    return {
        "frobenius.rcf.calls_per_op": calls("frobenius.rcf") / ops,
        "frobenius.rcf.self_us_per_call": per_call("frobenius.rcf"),
        "frobenius.rcf.share": rcf_incl / outer_decompose_ns if outer_decompose_ns else 0.0,
        "frobenius.rcf.blocks_per_call": blocks / calls("frobenius.rcf") if calls("frobenius.rcf") else 0.0,
        "decompose.field.self_us_per_call": per_call("decompose.field"),
        "decompose.selfchecks_per_op": sum(selfchecks_by_op(tracer).values()) / ops,
        "decompose.lift.calls_per_op": calls("decompose.lift") / ops,
        "decompose.lift.self_us_per_call": per_call("decompose.lift"),
        "matrix.crt.self_us_per_op": self_us("matrix.crt") / ops,
        "matrix.verify_certificate.calls_per_op": calls("matrix.verify_certificate") / ops,
        "matrix.verify_certificate.self_us_per_call": per_call("matrix.verify_certificate"),
        "matrix.nilpotency_exponent.calls_per_op": calls("matrix.nilpotency_exponent") / ops,
        "matrix.nilpotency_exponent.self_us_per_call": per_call("matrix.nilpotency_exponent"),
        "matrix.matmul.calls_per_op": calls("matrix.matmul") / ops,
        "matrix.from_rows.self_us_per_op": self_us("matrix.from_rows") / ops,
        "cli.parse.self_us_per_op": self_us("cli.parse") / ops,
        "cli.emit.self_us_per_op": self_us("cli.emit") / ops,
        "cli.emit.bytes_per_op": emitted / ops,
        "classifier.enumerate_idempotents.self_s": self_us(ENUMERATIONS[0]) / 1e6,
        "classifier.enumerate_nilpotents.self_s": self_us(ENUMERATIONS[1]) / 1e6,
        "classifier.predicate.self_s": self_us(PREDICATE) / 1e6,
        "classifier.idempotents_found": found[ENUMERATIONS[0]],
        "classifier.nilpotents_found": found[ENUMERATIONS[1]],
        "classifier.candidate_triples": triples,
        "classifier.elements_scanned": scanned,
    }


def _inside_decompose(tracer: Tracer) -> list[bool]:
    """Whether each span runs under a public decompose call."""
    names = tracer.names
    inside = [False] * len(tracer.name)
    for i in range(len(tracer.name)):
        p = tracer.parent[i]
        inside[i] = p >= 0 and (inside[p] or _in_decompose_layer(names[tracer.name[p]]))
    return inside


def selfchecks_by_op(tracer: Tracer) -> dict[int, int]:
    """Operation id -> certificate checks run under a public decompose call."""
    out: dict[int, int] = {}
    for i, inside in enumerate(_inside_decompose(tracer)):
        if inside and tracer.names[tracer.name[i]] == "matrix.verify_certificate":
            out[tracer.op[i]] = out.get(tracer.op[i], 0) + 1
    return out


def factorize_cache():
    """(hits, misses) of ``nilclean.residue.factorize``'s cache, or None when
    it has no cache."""
    residue = importlib.import_module("nilclean.residue")
    info = getattr(getattr(residue, "factorize", None), "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses
