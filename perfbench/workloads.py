"""The four workloads.  Each one builds its inputs from the seed (``setup``),
runs one operation per input through the program's public entry points
(``op``), and afterwards re-checks every output on its own (``gate``).

An operation is what ``attempted`` counts: a certificate (field-sweep), a
decomposition (zm-scaling), a document (verify-stream) or a command
(oracle-survey).  Latency samples are per input; a verify-stream input is a
batch of documents, and its latency is reported per document.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import re
import statistics
from time import perf_counter_ns

import arith
import gen

CEILING_01_S = 5.0
CEILING_02_S = 30.0
M4_Z2_COUNT = 2**16


def _import_program():
    # import_module: the package re-exports a function named ``decompose``
    # that shadows the submodule as an attribute of ``nilclean``.
    return tuple(importlib.import_module(f"nilclean.{name}")
                 for name in ("cli", "decompose"))


class Workload:
    name = ""
    op_unit = "operation"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.cli, self.decompose = _import_program()

    def setup(self) -> list:
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def ops_in(self, item) -> int:
        """Operations one input stands for."""
        return 1

    def gate(self, items: list, outputs: list) -> tuple[int, list[str]]:
        """(failed operations, descriptions of the first few failures)."""
        raise NotImplementedError

    def ring_of(self, item):
        """The ring an input lives in, where per-ring figures are wanted."""
        return None

    def record(self, items: list, outputs: list):
        """What ``summary`` needs from one pass's outputs."""
        return None

    def summary(self, items: list, typical: list, passes: list,
                slow: float) -> list[tuple[str, float, str, int]]:
        """The workload's own named end-to-end figures: (name, value, unit,
        samples).  ``typical`` is each input's median normalised latency over
        the passes (ns); ``passes`` are the dicts child.timed_pass returns,
        with raw times; ``slow`` is the run's speed factor (clock.py)."""
        return []

    def layer_data(self, items: list, outputs: list) -> dict[str, float]:
        """Per-layer figures read from the outputs rather than from spans."""
        return {}

    def teardown(self) -> None:
        pass


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _failure(failures: list, message: str) -> None:
    if len(failures) < 5:
        failures.append(message)


def _certificate_tags(tags, counts: dict) -> int:
    for tag in tags:
        family = ":".join(str(tag).split(":")[:2])
        counts[family] = counts.get(family, 0) + 1
    return len(tags)


# ---------------------------------------------------------------------------

class FieldSweep(Workload):
    """Every matrix of M3(Z3) (plus M2(Z3), M2(Z2), M3(Z2)) in exhaustive
    order and a seeded sample of M4(Z2), each through ``cli.decompose`` and
    ``cli.certificate_to_doc`` as ``decompose --exhaustive`` does."""

    name = "field-sweep"
    op_unit = "certificate"

    def setup(self):
        from nilclean.matrix import RingMatrix, zm_ring

        rings = {m: zm_ring(m) for m in (2, 3)}
        return [(group, rows, RingMatrix.from_rows(rows, rings[m]))
                for group, m, rows in gen.field_sweep_matrices(self.seed)]

    def op(self, item):
        cli = self.cli
        start = perf_counter_ns()
        cert = cli.decompose(item[2])
        mid = perf_counter_ns()
        return cli.certificate_to_doc(cert), mid - start

    def gate(self, items, outputs):
        failed, notes = 0, []
        for (group, rows, _), out in zip(items, outputs):
            if isinstance(out, BaseException):
                failed += 1
                _failure(notes, f"{group} {rows}: raised {out!r}")
                continue
            docs = arith.parse_documents(out[0])
            problem = _check_certificate_doc(docs, rows)
            if problem:
                failed += 1
                _failure(notes, f"{group} {rows}: {problem}")
        return failed, notes

    def record(self, items, outputs):
        """Seconds spent in ``cli.decompose`` per matrix group, with M4(Z2)
        scaled from its sample to all 2^16 matrices."""
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for (group, _, _), out in zip(items, outputs):
            if not isinstance(out, BaseException):
                sums[group] = sums.get(group, 0.0) + out[1] / 1e9
                counts[group] = counts.get(group, 0) + 1
        if counts.get("M4(Z2)"):
            sums["M4(Z2)"] *= M4_Z2_COUNT / counts["M4(Z2)"]
        return sums

    def summary(self, items, typical, passes, slow):
        out = [
            ("certs_per_s", len(typical) / (sum(typical) / 1e9), "1/s", len(typical)),
            ("cert_us.p50", quantile(typical, 0.5) / 1e3, "us", len(typical)),
            ("cert_us.p99", quantile(typical, 0.99) / 1e3, "us", len(typical)),
        ]
        # Acceptance 01/02 projections (decompose only, as those tests time it).
        med = {group: statistics.median(p["record"].get(group, 0.0) for p in passes) / slow
               for group in passes[0]["record"]}
        acc01 = med.get("M2(Z3)", 0.0) + med.get("M3(Z3)", 0.0)
        acc02 = med.get("M2(Z2)", 0.0) + med.get("M3(Z2)", 0.0) + med.get("M4(Z2)", 0.0)
        out.append(("acceptance_01_projected_s", acc01, "s", len(passes)))
        out.append(("acceptance_01_headroom", CEILING_01_S / acc01 if acc01 else 0.0, "x", len(passes)))
        out.append(("acceptance_02_projected_s", acc02, "s", len(passes)))
        out.append(("acceptance_02_headroom", CEILING_02_S / acc02 if acc02 else 0.0, "x", len(passes)))
        return out

    def layer_data(self, items, outputs):
        counts: dict[str, int] = {}
        blocks, ratio, n = 0, 0.0, 0
        for (_, rows, _), out in zip(items, outputs):
            if isinstance(out, BaseException):
                continue
            doc = arith.parse_documents(out[0])[0]
            blocks += _certificate_tags(doc.get("case-tags", []), counts)
            ratio += doc["nilpotency-exponent"] / arith.nilpotency_bound(len(rows), doc["modulus"])
            n += 1
        return _decompose_layer_data(counts, blocks, ratio, n)


def _check_certificate_doc(docs: list, rows: list):
    if len(docs) != 1:
        return f"expected one document, got {len(docs)}"
    doc = docs[0]
    if doc.get("kind") != "certificate" or doc.get("A") != rows:
        return "document does not certify the input matrix"
    if doc.get("verified") is not True:
        return "certificate not marked verified"
    try:
        failure = arith.certificate_failure(doc)
    except ValueError as bad:
        return str(bad)
    return f"independent check failed: {failure}" if failure else None


def _decompose_layer_data(counts: dict, blocks: int, ratio: float, n: int) -> dict:
    out = {f"decompose.tag.{family.replace(':', '.')}": float(c) for family, c in counts.items()}
    out["decompose.blocks_per_op"] = blocks / n if n else 0.0
    out["matrix.nil_exponent_over_bound"] = ratio / n if n else 0.0
    return out


# ---------------------------------------------------------------------------

class ZmScaling(Workload):
    """``decompose_zm`` over Z72 (lifting and CRT) and Z6 (CRT only) at
    n = 8, 16, 32, 64, on cyclic and derogatory inputs."""

    name = "zm-scaling"
    op_unit = "decomposition"

    def setup(self):
        from nilclean.matrix import RingMatrix, zm_ring

        return [(n, m, structure, a, RingMatrix.from_rows(arith.to_rows(a), zm_ring(m)))
                for n, m, structure, a in gen.zm_inputs(self.seed)]

    def op(self, item):
        return self.decompose.decompose_zm(item[4])

    def ring_of(self, item):
        return f"Z{item[1]}"

    def gate(self, items, outputs):
        failed, notes = 0, []
        for (n, m, structure, a, _), cert in zip(items, outputs):
            label = f"n={n} Z{m} {structure}"
            if isinstance(cert, BaseException):
                failed += 1
                _failure(notes, f"{label}: raised {cert!r}")
                continue
            problem = None
            try:
                mats = [arith.from_rows(x.to_rows(), m) for x in (cert.a, cert.e, cert.f, cert.w)]
                if (mats[0] != a).any():
                    problem = "certificate is not for the input matrix"
                elif cert.verified is not True:
                    problem = "certificate not marked verified"
                else:
                    failure = arith.first_failure(*mats, int(cert.nilpotency_exponent), m)
                    problem = failure and f"independent check failed: {failure}"
            except (AttributeError, TypeError, ValueError) as bad:
                problem = f"unreadable certificate: {bad!r}"
            if problem:
                failed += 1
                _failure(notes, f"{label}: {problem}")
        return failed, notes

    def summary(self, items, typical, passes, slow):
        out = [("decompositions_per_s", len(typical) / (sum(typical) / 1e9), "1/s", len(typical))]
        for size in sorted({item[0] for item in items}):
            sample = [t for (n, *_), t in zip(items, typical) if n == size]
            out.append((f"decompose_ms.n{size}", statistics.median(sample) / 1e6, "ms", len(sample)))
        return out

    def layer_data(self, items, outputs):
        counts: dict[str, int] = {}
        blocks, ratio, n = 0, 0.0, 0
        for (size, m, *_), cert in zip(items, outputs):
            if isinstance(cert, BaseException):
                continue
            blocks += _certificate_tags(cert.case_tags, counts)
            ratio += cert.nilpotency_exponent / arith.nilpotency_bound(size, m)
            n += 1
        return _decompose_layer_data(counts, blocks, ratio, n)


# ---------------------------------------------------------------------------

VERDICT = re.compile(r"certificate (\d+): (.*)")


class VerifyStream(Workload):
    """``nilclean verify --input FILE`` over a stream of certificates over Z3,
    Z2, Z72 and Z6[x]/(x^3), a quarter of them mutated, in files of
    BATCH_DOCS documents."""

    name = "verify-stream"
    op_unit = "document"

    def setup(self):
        stream = gen.verify_stream(self.seed)
        items = []
        for start in range(0, len(stream), gen.BATCH_DOCS):
            batch = stream[start:start + gen.BATCH_DOCS]
            path = os.path.join(self.workdir, f"stream-{start // gen.BATCH_DOCS:04d}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(doc for _, doc, _ in batch))
            items.append((path, [ring for ring, _, _ in batch], [label for _, _, label in batch]))
        return items

    def op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.cli.main(["verify", "--input", item[0]])
        return status, buf.getvalue()

    def ops_in(self, item):
        return len(item[2])

    def gate(self, items, outputs):
        failed, notes = 0, []
        for (path, rings, labels), out in zip(items, outputs):
            name = os.path.basename(path)
            if isinstance(out, BaseException):
                failed += len(labels)
                _failure(notes, f"{name}: raised {out!r}")
                continue
            status, text = out
            verdicts = {}
            for line in text.splitlines():
                match = VERDICT.fullmatch(line.strip())
                if match:
                    verdicts[int(match.group(1))] = match.group(2)
            wrong = [i for i, label in enumerate(labels) if verdicts.get(i) != label]
            expected_status = 0 if all(label == gen.LABEL_OK for label in labels) else 4
            if status != expected_status and not wrong:
                wrong = list(range(len(labels)))
            if wrong:
                failed += len(wrong)
                i = wrong[0]
                _failure(notes, f"{name} doc {i} ({rings[i]}): expected {labels[i]!r}, "
                                f"got {verdicts.get(i)!r}, exit {status}")
        return failed, notes

    def summary(self, items, typical, passes, slow):
        per_doc = [t / len(item[2]) for item, t in zip(items, typical)]
        docs = sum(len(item[2]) for item in items)
        return [
            ("docs_per_s", docs / (sum(typical) / 1e9), "1/s", docs),
            ("doc_us.p99", quantile(per_doc, 0.99) / 1e3, "us", len(per_doc)),
        ]

    def teardown(self):
        for name in os.listdir(self.workdir):
            if name.startswith("stream-"):
                os.remove(os.path.join(self.workdir, name))


# ---------------------------------------------------------------------------

def _smooth(m: int) -> bool:
    for p in (2, 3):
        while m % p == 0:
            m //= p
    return m == 1


def expected_holds(ring: str, prop: str):
    """What theory says, or None when the survey has no such case.

    Z_m and M_n(Z_m) are two-nil-clean exactly when m is 2-3-smooth (every
    prime factor is 2 or 3).  M_n(F_2) is nil-clean, hence weakly nil-clean.
    A matrix ring M_n(R), n >= 2, over a reduced ring is never strongly
    two-nil-clean: that would make it tripotent, and it has nonzero
    nilpotents."""
    match = re.fullmatch(r"(?:M(\d+)\()?Z(\d+)\)?", ring)
    if not match:
        return None
    n, m = int(match.group(1) or 1), int(match.group(2))
    if prop == "two-nil-clean":
        return _smooth(m)
    if prop in ("nil-clean", "weakly-nil-clean") and m == 2:
        return True
    if prop == "strongly-two-nil-clean" and n >= 2 and m in (2, 3, 6):
        return False
    return None


def _element(ring, value) -> tuple:
    from nilclean import classifier

    out = []
    for factor, part in zip(ring.factors, value):
        if isinstance(factor, classifier.MatFactor):
            out.append(tuple(x for row in part for x in row))
        elif isinstance(factor, classifier.TruncFactor):
            out.append(tuple(part))
        else:
            out.append(part)
    return tuple(out)


def replay_report(doc: dict) -> bool:
    """Rebuild the program's PropertyReport from a report document and replay
    its stored witness or counterexample."""
    from nilclean import classifier

    ring = classifier.parse_ring_descriptor(doc["ring"])
    parts = doc.get("witness-parts")
    report = classifier.PropertyReport(
        doc["property"], ring, doc["holds"],
        witness_element=_element(ring, doc["witness-element"]) if "witness-element" in doc else None,
        witness_parts=tuple(_element(ring, p) if isinstance(p, list) else p for p in parts)
        if parts is not None else None,
        counterexample=_element(ring, doc["counterexample"]) if "counterexample" in doc else None,
    )
    return report.replay()


def check_survey_output(cmd: list, status: int, text: str):
    """None when a survey command's output agrees with theory and replays."""
    if status != 0:
        return f"exit {status}"
    docs = arith.parse_documents(text)
    if cmd[0] == "demo-obstruction":
        rows = docs[0].get("rows") if docs else None
        chain = int(cmd[1])
        want = [[j, "x".join(f"Z{2**i}" for i in range(1, j + 1)),
                 [2 % 2**i for i in range(1, j + 1)], 1,
                 [3 % 2**i for i in range(1, j + 1)], j] for j in range(2, chain + 1)]
        return None if rows == want else f"obstruction table {rows} != {want}"
    props = cmd[2].split(",")
    if [d.get("property") for d in docs] != props:
        return f"reports {[d.get('property') for d in docs]} for {props}"
    for doc in docs:
        want = expected_holds(cmd[1], doc["property"])
        if want is None or doc.get("holds") is not want:
            return f"{doc['property']}: holds={doc.get('holds')}, theory says {want}"
        if not replay_report(doc):
            return f"{doc['property']}: evidence does not replay"
    return None


class OracleSurvey(Workload):
    """``nilclean classify`` over a fixed command list (and one
    ``demo-obstruction``); the seed does not change it."""

    name = "oracle-survey"
    op_unit = "command"

    def setup(self):
        return gen.survey_commands()

    def op(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.cli.main(list(item))
        return status, buf.getvalue()

    def gate(self, items, outputs):
        failed, notes = 0, []
        for cmd, out in zip(items, outputs):
            if isinstance(out, BaseException):
                problem = f"raised {out!r}"
            else:
                try:
                    problem = check_survey_output(cmd, *out)
                except Exception as err:  # malformed output is a failure, not a crash
                    problem = f"unreadable output: {err!r}"
            if problem:
                failed += 1
                _failure(notes, f"{' '.join(cmd)}: {problem}")
        return failed, notes

    def summary(self, items, typical, passes, slow):
        return [("survey_s", sum(typical) / 1e9, "s", len(typical))]


WORKLOADS = {w.name: w for w in (FieldSweep, ZmScaling, VerifyStream, OracleSurvey)}
