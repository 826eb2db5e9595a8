"""Batch command-line front end.

Commands: decompose, classify, verify, demo-obstruction.  Structured
output is a line-oriented ``key: value`` document (values in JSON), schema
"nilclean-cert/1"; multiple documents in one stream are separated by blank
lines.  Exit codes are stable: 0 success, 2 parse error, 3 unsupported ring,
4 verification failure, 5 resource cap exceeded, 70 internal check failure
(a bug: the message names the broken invariant and the input matrix).  A
reader that closes stdout early ends the command quietly with exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import json.encoder
import json.scanner
import operator
import os
import re
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from .decompose import decompose
from .errors import InputError, InternalCheckError, ResourceCapError, UnsupportedRingError
from .matrix import (
    DecompositionCertificate,
    MAX_DIMENSION,
    MatrixRing,
    RingMatrix,
    verify_certificate,
)

if TYPE_CHECKING:  # the commands that run the oracle import it when they run
    from . import classifier

SCHEMA = "nilclean-cert/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY = 4
EXIT_RESOURCE = 5
EXIT_INTERNAL = 70  # sysexits EX_SOFTWARE

EXHAUSTIVE_CAP = 10**6


# ---------------------------------------------------------------------------
# Document serialization
# ---------------------------------------------------------------------------

def emit_document(pairs: Sequence[tuple[str, object]]) -> str:
    lines = []
    for key, value in pairs:
        rendered = value if isinstance(value, str) else json.dumps(value)
        lines.append(f"{key}: {rendered}")
    return "\n".join(lines) + "\n"


# the first characters of JSON arrays, objects, strings and numbers, and the
# words json.loads accepts whole; it refuses every other value
_JSON_FIRST = frozenset('[{"-0123456789')
_JSON_WORDS = frozenset(("true", "false", "null", "NaN", "Infinity"))
# the C scanner json.loads runs under its decode and raw_decode layers
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def parse_document(text: str) -> dict:
    """The fields of one document, none for a text of blank and '#' comment
    lines alone; a key given twice is refused, naming it and the line,
    counted within the document, that repeats it.  So is a JSON true or
    false inside a list: no list of the schema holds one, and Python, numpy
    included, would read it in a matrix as the int 1 or 0."""
    doc: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ": " not in line and not line.endswith(":"):
            raise InputError(f"line {lineno} is not 'key: value': {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in doc:
            raise InputError(f"line {lineno} repeats key {key!r}")
        doc[key] = value = value.strip()
        if value[:1] in _JSON_FIRST or value in _JSON_WORDS:
            # json.loads keeps a scan followed by JSON whitespace alone, and a
            # stripped value ends in no whitespace: the scan must reach its end
            try:
                obj, end = _scan_json(value, 0)
            except (StopIteration, ValueError, RecursionError):  # also over 4,300 digits, or nested too deep
                continue
            if end == len(value):
                # both words hold an "e", which one memchr rules out in a list of integers
                if value[0] == "[" and "e" in value and ("true" in value or "false" in value) \
                        and _holds_bool(obj):
                    raise InputError(f"field {key!r} holds JSON true or false inside a list: {value!r:.40}")
                doc[key] = obj
    return doc


def _holds_bool(value) -> bool:
    """Whether a bool is among the items of a list and of the lists in it."""
    todo = [value]
    while todo:
        item = todo.pop()
        if type(item) is list:
            todo.extend(item)
        elif type(item) is bool:
            return True
    return False


def iter_documents(lines: Iterable[str]) -> Iterator[dict]:
    """The documents in a stream of lines, each parsed as soon as the blank
    or whitespace-only line after it, or the end of the stream, is read.  A
    block of '#' comment lines alone is no document and is skipped."""
    chunk: list[str] = []
    for line in itertools.chain(lines, [""]):
        if line.strip():
            chunk.append(line)
        elif chunk:
            doc = parse_document("".join(chunk))
            if doc:
                yield doc
            chunk = []


@functools.lru_cache(maxsize=256)  # a stream repeats a few ring names
def parse_matrix_ring(text: str) -> MatrixRing:
    """Entry-ring descriptor for matrices: "Z12" or "Z6[x]/(x^2)"."""
    s = text.replace(" ", "")
    mobj = re.fullmatch(r"Z([0-9]+)(?:\[x\]/\(x\^([0-9]+)\))?", s)
    if not mobj:
        raise InputError(f"cannot parse matrix ring {text!r}")
    m, d = (_digits(g) for g in mobj.groups(default="1"))
    return MatrixRing(m, d)


def _digits(text: str) -> int:
    """int() of a digit run; Python refuses runs over 4,300 digits."""
    try:
        return int(text)
    except ValueError:
        raise InputError(f"integer with {len(text)} digits is too long") from None


def certificate_to_doc(cert: DecompositionCertificate) -> str:
    """The certificate document, in emit_document's bytes, as one f-string.
    Ints and nested lists of Python ints are rendered by str(), which gives
    json.dumps's bytes for them at a fraction of the cost; the exponent is
    its int or null, verified true or false, and each case tag, a str, goes
    through the C encoder json.dumps applies to a str, joined by ", " as it
    joins a list (a tag of another type raises TypeError)."""
    ring, k = cert.a.ring, cert.nilpotency_exponent
    return (f"schema: {SCHEMA}\nkind: certificate\nring: {ring.describe()}\n"
            f"modulus: {ring.m}\ntrunc-degree: {ring.d}\nn: {cert.a.n}\n"
            f"A: {cert.a.to_rows()}\nE: {cert.e.to_rows()}\nF: {cert.f.to_rows()}\n"
            f"W: {cert.w.to_rows()}\nnilpotency-exponent: {'null' if k is None else k}\n"
            f"case-tags: [{', '.join(map(json.encoder.encode_basestring_ascii, cert.case_tags))}]\n"
            f"verified: {'true' if cert.verified else 'false'}\n")


def certificate_from_doc(doc: dict) -> DecompositionCertificate:
    try:
        ring = _doc_ring(doc)
        if ring is None:
            raise KeyError("modulus")
        mats = _doc_matrices(doc, ("A", "E", "F", "W"), ring)
        exponent = _doc_int(doc, "nilpotency-exponent")
    except KeyError as missing:
        raise InputError(f"certificate document lacks field {missing}")
    except (TypeError, ValueError) as bad:
        raise InputError(f"malformed certificate document: {bad}")
    tags = doc.get("case-tags", [])
    if type(tags) is not list or not all(type(tag) is str for tag in tags):
        raise InputError(f"field 'case-tags' must be a JSON list of strings, got {tags!r:.40}")
    n = mats[0].n
    if any(mat.n != n for mat in mats):
        raise InputError("certificate matrices disagree in dimension")
    if "n" in doc and _doc_int(doc, "n") != n:
        raise InputError("declared dimension does not match the matrices")
    return DecompositionCertificate(*mats, exponent, tuple(tags))


def _element_json(ring: classifier.RingDescriptor, element: tuple) -> list:
    """Each value by its factor's shape: an int, a list, or a matrix's rows."""
    out = []
    for fac, value in zip(ring.factors, element):
        if len(fac.shape) == 2:
            n = fac.shape[1]
            value = [list(value[i:i + n]) for i in range(0, n * n, n)]
        elif fac.shape:
            value = list(value)
        out.append(value)
    return out


def report_to_doc(report: classifier.PropertyReport) -> str:
    from . import classifier
    pairs: list[tuple[str, object]] = [
        ("schema", SCHEMA),
        ("kind", "report"),
        ("ring", report.ring.describe()),
        ("property", report.property),
        ("holds", report.holds),
    ]
    if report.witness_element is not None:
        pairs.append(("witness-element", _element_json(report.ring, report.witness_element)))
    if report.witness_parts is not None:
        parts = [
            _element_json(report.ring, part) if isinstance(part, tuple) else part
            for part in report.witness_parts
        ]
        pairs.append(("witness-parts", parts))
    if report.counterexample is not None:
        cex = report.counterexample
        pairs.append(("counterexample", [_element_json(report.ring, c) for c in cex]
                      if classifier.lookup(report.property).pairwise
                      else _element_json(report.ring, cex)))
    return emit_document(pairs)


# ---------------------------------------------------------------------------
# Input handling
# ---------------------------------------------------------------------------

def _input_lines(args) -> Iterator[str]:
    """The lines of --input FILE, or of stdin, read as they are needed, less
    one byte-order mark (U+FEFF) at the start of the first."""
    with open(args.input, encoding="utf-8") if args.input else contextlib.nullcontext(sys.stdin) as handle:
        try:
            for line in handle:
                yield line.removeprefix("\ufeff")
                break
            yield from handle
        except UnicodeDecodeError as err:
            raise InputError(f"{args.input or 'stdin'} is not UTF-8 text: {err.reason}") from None


def _write(doc: str, args) -> None:
    """A document, or under --format plain its lines after schema and kind."""
    sys.stdout.write(doc.split("\n", 2)[2] if args.format == "plain" else doc)


def _doc_int(doc: dict, key: str, default: Optional[int] = None) -> int:
    """An integer field of a document; KeyError when it is missing and has
    no default, InputError when it is not an integer.  JSON true and false
    are refused: Python reads them as the ints 1 and 0."""
    value = doc[key] if default is None else doc.get(key, default)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"field {key!r} must be an integer, got {value!r:.40}")


def _doc_ring(doc: dict) -> Optional[MatrixRing]:
    """The ring a document names, or None when it names none: by its 'ring',
    by 'modulus' and 'trunc-degree' (1 when not given), or by both, which
    must then name one ring; a degree beside 'ring' alone must be its d.  A
    'schema' other than SCHEMA is refused."""
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise InputError(f"field 'schema' must be {SCHEMA}, got {doc['schema']!r:.40}")
    named = parse_matrix_ring(str(doc["ring"])) if "ring" in doc else None
    if "modulus" not in doc and not (named and "trunc-degree" in doc):
        return named
    if named is None:
        return MatrixRing(_doc_int(doc, "modulus"), _doc_int(doc, "trunc-degree", 1))
    m, d = _doc_int(doc, "modulus", named.m), _doc_int(doc, "trunc-degree", named.d)
    if (m, d) != (named.m, named.d):
        raise InputError(f"field 'ring' names {named.describe()}, but 'modulus' and "
                         f"'trunc-degree' name {MatrixRing(m, d).describe()}")
    return named


def _doc_matrices(doc: dict, keys: Sequence[str], ring: MatrixRing) -> list:
    """The matrix fields of a document, in one conversion; KeyError when one
    is missing, InputError when one is not a JSON list: parse_document keeps
    a value that is not JSON as its raw text, whose characters must not be
    read as rows.  The fields before such a one are converted first, so that
    each error comes in the order of the keys."""
    values = list(itertools.takewhile(lambda value: isinstance(value, list), map(doc.get, keys)))
    mats = RingMatrix._stack_from_rows(values, ring) if values else []
    if len(mats) < len(keys):
        key = keys[len(mats)]
        raise InputError(f"field {key!r} is not a JSON matrix: {doc[key]!r:.40}")
    return mats


def _matrix_inputs(args) -> Iterator[RingMatrix]:
    """The input matrices, each as soon as it is read: one per key-value
    document of the stream or, when the first line that is neither blank nor
    a '#' comment has no ':', the whole input as one matrix of plain
    whitespace rows."""
    lines = _input_lines(args)
    head = []  # the lines up to that first one, which are read again
    for first in lines:
        head.append(first)
        if first.strip()[:1] not in ("", "#"):
            break
    else:
        raise InputError("empty matrix input")
    lines = itertools.chain(head, lines)
    flagged = parse_matrix_ring(args.ring) if args.ring else None
    if args.m is not None:  # --modulus, which argparse keeps apart from --ring
        flagged = MatrixRing(args.m)
    if ":" in first:
        for doc in iter_documents(lines):
            yield _doc_input_matrix(doc, flagged)
    else:
        yield _plain_matrix("".join(lines), flagged)


def _input_ring(named: Optional[MatrixRing], flagged: Optional[MatrixRing]) -> MatrixRing:
    """The ring of an input matrix: the one its document names, else the one
    of --ring or --modulus; a document and a flag that both name one must
    name the same."""
    if named and flagged and named != flagged:
        raise InputError(f"the document names ring {named.describe()}, "
                         f"but the flags name {flagged.describe()}")
    if not (named or flagged):
        raise InputError("no ring given: pass --modulus or --ring (or a matrix document)")
    return named or flagged


def _doc_input_matrix(doc: dict, flagged: Optional[MatrixRing]) -> RingMatrix:
    """The matrix of a key-value matrix document."""
    if "A" not in doc:
        raise InputError("matrix document lacks field 'A'")
    ring = _input_ring(_doc_ring(doc), flagged)
    try:
        [a] = _doc_matrices(doc, ("A",), ring)
    except (TypeError, ValueError) as bad:
        raise InputError(f"field 'A' is not a matrix of integers: {bad}") from None
    if "n" in doc and _doc_int(doc, "n") != a.n:
        raise InputError("declared dimension does not match the matrix")
    return a


def _plain_matrix(text: str, flagged: Optional[MatrixRing]) -> RingMatrix:
    """A matrix of whitespace-separated rows of ASCII integers, [+-]?[0-9]+,
    converted as document matrices are; blank lines and '#' comment lines
    are skipped."""
    ring = _input_ring(None, flagged)
    if ring.d != 1:
        raise InputError("plain whitespace matrices support only Z_m entries")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not re.fullmatch(r"[+-]?[0-9]+(\s+[+-]?[0-9]+)*", line):
            raise InputError(f"bad matrix row: {line!r}")
        rows.append([_digits(tok) for tok in line.split()])
    return RingMatrix._stack_from_rows([rows], ring)[0]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    """Certify the input matrices one at a time, writing each certificate,
    after a blank line from the one before, before the next matrix is read:
    memory stays flat in their number, and a bad document stops the stream
    after the certificates before it."""
    matrices = _exhaustive_matrices(args) if args.exhaustive else _matrix_inputs(args)
    emitted = 0
    for a in matrices:
        if emitted:
            sys.stdout.write("\n")
        _write(certificate_to_doc(decompose(a)), args)
        emitted += 1
    if args.exhaustive:
        n, m = args.exhaustive
        print(f"exhaustive sweep: {emitted} verified certificates over M_{n}(Z_{m})", file=sys.stderr)
    return EXIT_OK


def _exhaustive_matrices(args) -> Iterator[RingMatrix]:
    """Every matrix of M_N(Z_M) in order, after the checks of --exhaustive N M."""
    unused = [flag for flag, given in (("--input", args.input is not None),
                                       ("--modulus", args.m is not None),
                                       ("--ring", args.ring is not None),
                                       ("--format plain", args.format == "plain")) if given]
    if unused:
        raise InputError(f"--exhaustive cannot be combined with {', '.join(unused)}")
    n, m = args.exhaustive
    if n < 1:
        raise InputError(f"exhaustive sweep needs a dimension N >= 1, got {n}")
    ring = MatrixRing(m)
    if n > MAX_DIMENSION or m ** (n * n) > EXHAUSTIVE_CAP:
        raise ResourceCapError(
            f"exhaustive sweep of M_{n}(Z_{m}) has {m}^{n * n} matrices, over the cap"
        )
    return (RingMatrix(ring, np.array(entries, dtype=np.int64).reshape(1, n, n))
            for entries in itertools.product(range(m), repeat=n * n))


def cmd_classify(args) -> int:
    from . import classifier
    ring = classifier.parse_ring_descriptor(args.ring_descriptor)
    names = [name.strip() for name in args.properties.split(",") if name.strip()]
    if not names:
        raise InputError("no properties requested")
    reports = [classifier.decide(name, ring) for name in names]
    if args.format == "plain":
        for report in reports:
            print(f"{report.property}: {str(report.holds).lower()}")
    else:
        sys.stdout.write("\n".join(report_to_doc(r) for r in reports))
    return EXIT_OK


def cmd_verify(args) -> int:
    """Check the certificate documents one at a time, printing each verdict
    before the next document is read: memory stays flat in their number, and
    a malformed document stops the stream after the verdicts before it."""
    status, index = EXIT_OK, 0
    for doc in iter_documents(_input_lines(args)):
        if doc.get("kind", "certificate") != "certificate":
            continue
        cert = certificate_from_doc(doc)
        if verify_certificate(cert):
            print(f"certificate {index}: ok")
        else:
            print(f"certificate {index}: FAILED check: {cert.failure}")
            status = EXIT_VERIFY
        index += 1
    if not index:
        raise InputError("no certificate documents in input")
    return status


def cmd_demo_obstruction(args) -> int:
    from . import classifier
    k = args.k
    if not (2 <= k <= 5):
        raise InputError("chain length must be between 2 and 5")
    rows = []
    for j in range(2, k + 1):
        ring = classifier.RingDescriptor(tuple(classifier.ZmFactor(2**i) for i in range(1, j + 1)))
        doubled = tuple(2 % (2**i) for i in range(1, j + 1))
        tripled = tuple(3 % (2**i) for i in range(1, j + 1))
        rows.append(
            (
                j,
                ring.describe(),
                list(doubled),
                classifier.min_nilpotent_index_over_decompositions(ring, doubled),
                list(tripled),
                classifier.min_nilpotent_index_over_decompositions(ring, tripled),
            )
        )
    if args.format == "plain":
        print("chain  ring                 2*1 element        min-exp  3*1 element        min-exp")
        for j, label, dbl, kd, trp, kt in rows:
            print(f"{j:<6} {label:<20} {str(tuple(dbl)):<18} {kd:<8} {str(tuple(trp)):<18} {kt}")
        print("the doubled identity always splits as 1 + 1 + 0; the tripled identity")
        print("forces w = 2 in every Z_{2^i} factor, so its index grows with the chain")
    else:
        sys.stdout.write(
            emit_document(
                [
                    ("schema", SCHEMA),
                    ("kind", "obstruction-table"),
                    ("columns", ["chain-length", "ring", "doubled-element",
                                 "doubled-min-exponent", "tripled-element",
                                 "tripled-min-exponent"]),
                    ("rows", [list(r) for r in rows]),
                ]
            )
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _ascii_int(text: str) -> int:
    """int() of ASCII text alone: int() also reads the digits of other scripts."""
    if text.isascii():
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilclean",
        description="Constructive two-idempotents-plus-nilpotent matrix "
        "decompositions over Z_m with machine-verified certificates, plus a "
        "brute-force classifier for small finite rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", metavar="FILE", help="read input from FILE instead of stdin")

    def add_format(p):
        p.add_argument("--format", choices=("plain", "doc"), default="doc",
                       help="output format (default: doc)")

    p = sub.add_parser("decompose", help="decompose a matrix as E + F + W")
    add_input(p)
    add_format(p)
    ring = p.add_mutually_exclusive_group()
    ring.add_argument("--modulus", dest="m", metavar="MODULUS", type=_ascii_int,
                      help="entry ring modulus m for plain input")
    ring.add_argument("--ring", help='entry ring, e.g. "Z12" or "Z6[x]/(x^2)"')
    p.add_argument("--exhaustive", nargs=2, type=_ascii_int, metavar=("N", "M"),
                   help="emit certificates for every matrix in M_N(Z_M)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="decide ring properties by brute force")
    add_format(p)
    p.add_argument("ring_descriptor", help='e.g. "Z6", "Z3xZ3", "M2(Z2)", "Z2[x]/(x^3)"')
    p.add_argument("properties", help="comma-separated property names")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="re-verify certificate documents")
    add_input(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo-obstruction", help="minimal nilpotency indices over "
                       "decompositions in chains Z_2 x Z_4 x ... x Z_{2^k}")
    add_format(p)
    p.add_argument("k", type=_ascii_int, help="chain length (2..5)")
    p.set_defaults(func=cmd_demo_obstruction)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedRingError as err:
        print(f"unsupported ring: {err}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ResourceCapError as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:  # the reader closed stdout: let the final flush go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except InternalCheckError as err:
        print(f"internal check failed: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:  # console script target
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
