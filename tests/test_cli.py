"""CLI: document round-trips, exit codes, golden sweep, negative controls."""

import argparse
import hashlib
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mat_mul_naive
import nilclean
from nilclean import classifier, cli
from nilclean.classifier import PropertyReport, parse_ring_descriptor
from nilclean.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_UNSUPPORTED,
    EXIT_VERIFY,
    certificate_from_doc,
    certificate_to_doc,
    emit_document,
    iter_documents,
    main,
    parse_document,
    parse_matrix_ring,
)
from nilclean.decompose import decompose
from nilclean.errors import InputError
from nilclean.matrix import (
    CHECK_SUM,
    DecompositionCertificate,
    MatrixRing,
    RingMatrix,
    verify_certificate,
    zm_ring,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "m2_z3_sweep.txt"


def unsupported_message(m, p):
    return (f"unsupported ring: modulus {m} has prime factor {p}; decompositions exist only "
            f"when every prime factor is 2 or 3 (e.g. 3 in Z5 is not a sum of two "
            f"idempotents and a nilpotent)\n")


def run(capsys, monkeypatch, args, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def documents(text):
    return list(iter_documents(io.StringIO(text)))


class TestDocuments:
    def test_certificate_roundtrip(self, rng):
        for m in (6, 12, 36):
            cert = decompose(RingMatrix.random(3, zm_ring(m), rng))
            doc = parse_document(certificate_to_doc(cert))
            rebuilt = certificate_from_doc(doc)
            assert rebuilt.a == cert.a and rebuilt.e == cert.e
            assert rebuilt.f == cert.f and rebuilt.w == cert.w
            assert rebuilt.nilpotency_exponent == cert.nilpotency_exponent
            assert rebuilt.case_tags == cert.case_tags
            assert certificate_to_doc(rebuilt).replace("verified: false", "verified: true") \
                == certificate_to_doc(cert)

    def test_split_documents(self):
        text = "a: 1\nb: 2\n\n\nc: 3\n"
        assert documents(text) == [{"a": 1, "b": 2}, {"c": 3}]

    def test_malformed_document(self):
        with pytest.raises(InputError):
            parse_document("just some text with no structure")

    def test_ring_labels(self):
        assert parse_matrix_ring("Z12").m == 12
        ring = parse_matrix_ring("Z6[x]/(x^2)")
        assert ring.m == 6 and ring.d == 2
        with pytest.raises(InputError):
            parse_matrix_ring("GF(4)")


class TestDecomposeCommand:
    def test_plain_input_doc_output(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "3"], "0 1\n1 0\n")
        assert code == EXIT_OK
        doc = parse_document(out)
        assert doc["E"] == [[0, 2], [0, 1]]
        assert doc["F"] == [[1, 0], [0, 1]]
        assert doc["W"] == [[2, 2], [1, 1]]
        assert doc["verified"] is True

    @pytest.mark.parametrize("command", ("decompose",))
    def test_modulus_zero_is_named(self, capsys, monkeypatch, command):
        code, _, err = run(capsys, monkeypatch, [command, "--modulus", "0"], "1\n")
        assert code == EXIT_PARSE
        assert "modulus must be an integer in [2, 2^31], got 0" in err

    def test_closed_stdout_ends_quietly(self):
        # as `| head -1` does: the sweep writes far past the pipe's buffer
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "nilclean.cli", "decompose", "--exhaustive", "2", "6"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline() == b"schema: nilclean-cert/1\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == EXIT_OK
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    @pytest.mark.parametrize("n", (8, 64))
    def test_modulus_near_two_to_the_31(self, capsys, monkeypatch, n):
        """Plain rows with entries near 2^31 parse exactly under --ring and
        --modulus: over Z_{2^31} the certificate holds, checked on Python
        ints, and over the prime 2^31 - 1 the ring is refused."""
        m = 2**31
        rows = RingMatrix.random(n, zm_ring(m), np.random.default_rng(n)).to_rows()
        text = "\n".join(" ".join(str(v) for v in row) for row in rows)
        code, out, err = run(capsys, monkeypatch, ["decompose", "--ring", f"Z{m}"], text)
        assert code == EXIT_OK and "Traceback" not in err
        doc = parse_document(out)
        assert doc["A"] == rows and doc["verified"] is True
        assert [[sum(x) % m for x in zip(*r)] for r in zip(doc["E"], doc["F"], doc["W"])] == rows
        assert mat_mul_naive(doc["E"], doc["E"], m) == doc["E"]
        code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", str(m - 1)], text)
        assert code == EXIT_UNSUPPORTED and out == "" and "Traceback" not in err

    def test_unsupported_modulus_exit_code(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["decompose", "--modulus", "5"], "3\n")
        assert code == EXIT_UNSUPPORTED
        assert "Z5" in err and "prime factor" in err

    @pytest.mark.parametrize("args,stdin,m", [
        (["--modulus", "10"], "3\n", 10),
        (["--ring", "Z10[x]/(x^2)"], "A: [[[1, 1]]]\n", 10),
        ([], "ring: Z35\nA: [[1]]\n", 35),
    ])
    def test_unsupported_ring_message(self, capsys, monkeypatch, args, stdin, m):
        code, out, err = run(capsys, monkeypatch, ["decompose", *args], stdin)
        assert code == EXIT_UNSUPPORTED and out == ""
        assert err == unsupported_message(m, 5)

    def test_every_modulus_to_200_with_a_prime_past_3(self, capsys, monkeypatch):
        # refused before any output, naming the least prime factor >= 5
        refused = 0
        for m in range(2, 201):
            p = next((q for q in range(5, m + 1) if m % q == 0 and all(q % r for r in range(2, q))), None)
            if p is not None:
                code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", str(m)], "1 2\n3 4\n")
                assert (code, out, err) == (EXIT_UNSUPPORTED, "", unsupported_message(m, p))
                refused += 1
        assert refused == 175  # of the 199 moduli in [2, 200], 24 are 2-3-smooth

    @pytest.mark.parametrize("row", ("1_0 0", "0 \u0661"))
    def test_plain_rows_take_only_ascii_integers(self, capsys, monkeypatch, row):
        # int() alone reads "1_0" as 10 and the Arabic-Indic digit one as 1
        code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", "3"], f"1 0\n{row}\n")
        assert code == EXIT_PARSE and out == ""
        assert err == f"input error: bad matrix row: {row!r}\n"
        code, out, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "3"], "+1 -0\n-2 4\n")
        assert code == EXIT_OK and parse_document(out)["A"] == [[1, 0], [1, 1]]

    def test_zero_matrix_zero_certificate(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "0 0\n0 0\n")
        assert code == EXIT_OK
        doc = parse_document(out)
        assert doc["E"] == doc["F"] == doc["W"] == [[0, 0], [0, 0]]

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "1 x\n")
        assert code == EXIT_PARSE

    def test_missing_ring_is_parse_error(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["decompose"], "1 0\n0 1\n")
        assert code == EXIT_PARSE

    def test_non_square_rejected(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "1 0 1\n0 1\n")
        assert code == EXIT_PARSE

    def test_document_input_trunc_ring(self, capsys, monkeypatch):
        doc = "kind: matrix\nring: Z3[x]/(x^2)\nA: [[[1, 1]]]\n"
        code, out, _ = run(capsys, monkeypatch, ["decompose"], doc)
        assert code == EXIT_OK
        parsed = parse_document(out)
        assert parsed["E"] == [[[1, 0]]]
        assert parsed["W"] == [[[0, 1]]]

    def test_triangular_flag(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["decompose", "--triangular", "--modulus", "6"], "5 1\n0 2\n"
        )
        assert code == EXIT_OK
        doc = parse_document(out)
        assert doc["E"] == [[1, 0], [0, 4]]
        # one 1 x 1 block per diagonal entry and prime, as decompose tags them
        assert doc["case-tags"] == ["gf2:j0:n1", "gf2:zero:n1", "gf3:j1:n1", "gf3:j1:n1"]
        assert run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "5 1\n0 2\n")[1] == out

    def test_plain_format(self, capsys, monkeypatch):
        """Plain output is the certificate document without its schema and
        kind lines."""
        code, out, _ = run(capsys, monkeypatch,
                           ["decompose", "--modulus", "6", "--format", "plain"], "5 1\n0 2\n")
        assert code == EXIT_OK
        assert out == (
            "ring: Z6\nmodulus: 6\ntrunc-degree: 1\nn: 2\n"
            "A: [[5, 1], [0, 2]]\nE: [[1, 0], [0, 4]]\nF: [[4, 0], [0, 4]]\nW: [[0, 1], [0, 0]]\n"
            "nilpotency-exponent: 2\n"
            'case-tags: ["gf2:j0:n1", "gf2:zero:n1", "gf3:j1:n1", "gf3:j1:n1"]\n'
            "verified: true\n")
        code, out, _ = run(capsys, monkeypatch, ["decompose", "--format", "plain"],
                           "ring: Z3[x]/(x^2)\nA: [[[1, 1], [0, 2]], [[0, 1], [2]]]\n")
        assert code == EXIT_OK
        assert out == (
            "ring: Z3[x]/(x^2)\nmodulus: 3\ntrunc-degree: 2\nn: 2\n"
            "A: [[[1, 1], [0, 2]], [[0, 1], [2, 0]]]\n"
            "E: [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]\n"
            "F: [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]\n"
            "W: [[[0, 1], [0, 2]], [[0, 1], [0, 0]]]\n"
            "nilpotency-exponent: 2\n"
            'case-tags: ["gf3:j0:n1", "gf3:j1:n1"]\n'
            "verified: true\n")

    def test_input_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("4\n")
        code, out, _ = run(
            capsys, monkeypatch, ["decompose", "--modulus", "6", "--input", str(path)]
        )
        assert code == EXIT_OK and parse_document(out)["E"] == [[4]]

    def test_missing_file(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, monkeypatch, ["decompose", "--modulus", "6", "--input", "/no/such/file"]
        )
        assert code == EXIT_PARSE

    def test_exhaustive_cap(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["decompose", "--exhaustive", "3", "64"])
        assert code == EXIT_RESOURCE

    @pytest.mark.parametrize("n", ("0", "-1"))
    def test_exhaustive_dimension_below_one(self, capsys, monkeypatch, n):
        code, out, err = run(capsys, monkeypatch, ["decompose", "--exhaustive", n, "3"])
        assert code == EXIT_PARSE
        assert out == "" and "N >= 1" in err

    @pytest.mark.parametrize("extra,named", [
        (["--input", "/no/such/file"], "--input"),
        (["--modulus", "5"], "--modulus"),
        (["--ring", "Z6"], "--ring"),
        (["--triangular"], "--triangular"),
        (["--format", "plain"], "--format plain"),
    ], ids=["input", "modulus", "ring", "triangular", "format-plain"])
    def test_exhaustive_refuses_flags_it_cannot_use(self, capsys, monkeypatch, extra, named):
        code, out, err = run(capsys, monkeypatch, ["decompose", "--exhaustive", "1", "2", *extra])
        assert code == EXIT_PARSE and out == ""
        assert f"--exhaustive cannot be combined with {named}" in err

    def test_exhaustive_huge_dimension_is_capped(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["decompose", "--exhaustive", "10000000", "2"])
        assert code == EXIT_RESOURCE

    def test_trunc_degree_over_cap(self, capsys, monkeypatch):
        doc = "modulus: 6\ntrunc-degree: 100000000\nA: [[[1]]]\n"
        start = time.perf_counter()
        code, _, err = run(capsys, monkeypatch, ["decompose"], doc)
        assert code == EXIT_RESOURCE and "cap" in err
        code, _, _ = run(capsys, monkeypatch, ["decompose"], "ring: Z6[x]/(x^100000000)\nA: [[1]]\n")
        assert code == EXIT_RESOURCE
        assert time.perf_counter() - start < 1.0


NON_INTEGER_FIELDS = [
    ("A", "[[1.5]]"),
    ("A", "5"),
    ("A", '"x"'),
    ("A", "[[[1.5]]]"),
    ("modulus", '"abc"'),
    ("modulus", "3.5"),
]


def _document(**fields):
    values = {"modulus": "3", "A": "[[1]]", "E": "[[1]]", "F": "[[0]]", "W": "[[0]]",
              "nilpotency-exponent": "1"}
    values.update(fields)
    return "".join(f"{key}: {value}\n" for key, value in values.items())


class TestNonIntegerDocuments:
    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("key,value", NON_INTEGER_FIELDS)
    def test_parse_exit_without_traceback(self, capsys, monkeypatch, command, key, value):
        code, _, err = run(capsys, monkeypatch, [command], _document(**{key: value}))
        assert code == EXIT_PARSE
        assert "input error" in err and "Traceback" not in err

    def test_well_formed_document_still_accepted(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify"], _document())
        assert code == EXIT_OK and "ok" in out


class TestBooleanFields:
    """JSON true and false are not integers, though operator.index reads them
    as 1 and 0: a certificate with true exponent and degree used to verify."""

    @pytest.mark.parametrize("value", ["true", "false"])
    @pytest.mark.parametrize("command,key", [
        *(("verify", key) for key in ("modulus", "trunc-degree", "n", "nilpotency-exponent")),
        *(("decompose", key) for key in ("modulus", "trunc-degree", "n"))])
    def test_refused_naming_the_field(self, capsys, monkeypatch, command, key, value):
        code, out, err = run(capsys, monkeypatch, [command], _document(**{key: value}))
        assert code == EXIT_PARSE
        assert f"field {key!r} must be an integer" in err and "Traceback" not in err
        assert "ok" not in out

    # numpy reads all-boolean rows as a bool array, and upcasts mixed ones to int64
    BOOLEAN_MATRICES = {
        "all-boolean": ("Z6", "[[true, false], [false, true]]"),
        "mixed": ("Z6", "[[true, 2], [false, 1]]"),
        "coefficient": ("Z6[x]/(x^2)", "[[[1, false], 2], [0, [true]]]"),
    }

    @pytest.mark.parametrize("ring,rows", BOOLEAN_MATRICES.values(), ids=BOOLEAN_MATRICES.keys())
    def test_matrix_entries_refused_by_decompose(self, capsys, monkeypatch, ring, rows):
        code, out, err = run(capsys, monkeypatch, ["decompose"], f"ring: {ring}\nA: {rows}\n")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"input error: field 'A' holds JSON true or false inside a list: {rows!r:.40}\n"

    @pytest.mark.parametrize("key", ["A", "E", "F", "W"])
    @pytest.mark.parametrize("ring,rows", BOOLEAN_MATRICES.values(), ids=BOOLEAN_MATRICES.keys())
    def test_matrix_entries_refused_by_verify(self, capsys, monkeypatch, ring, rows, key):
        code, cert, _ = run(capsys, monkeypatch, ["decompose"], f"ring: {ring}\nA: [[1, 0], [0, 1]]\n")
        assert code == EXIT_OK
        edited = re.sub(f"^{key}: .*$", f"{key}: {rows}", cert, flags=re.M)
        code, out, err = run(capsys, monkeypatch, ["verify"], cert + "\n" + edited)
        assert (code, out) == (EXIT_PARSE, "certificate 0: ok\n")
        assert err == f"input error: field {key!r} holds JSON true or false inside a list: {rows!r:.40}\n"

    def test_words_in_strings_are_not_booleans(self, capsys, monkeypatch):
        doc = _document(**{"case-tags": '["true", "false"]'})
        assert run(capsys, monkeypatch, ["verify"], doc)[:2] == (EXIT_OK, "certificate 0: ok\n")

    def test_declared_dimension_checked_on_decompose(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["decompose"], _document(n="2"))
        assert code == EXIT_PARSE and "declared dimension" in err
        code, out, _ = run(capsys, monkeypatch, ["decompose"], _document(n="1"))
        assert code == EXIT_OK and "kind: certificate" in out


class TestCaseTags:
    """verify reads 'case-tags' as a JSON list of strings or refuses it: a
    string was kept as the tuple of its characters, and ints as they were."""

    @pytest.mark.parametrize("tags", ['"not a list"', "[1, 2]", '[["gf3:trace-one:n1"]]', "gf3",
                                      '["a", 1]', "{}", "null", "7"])
    def test_refused_naming_the_field(self, capsys, monkeypatch, tags):
        code, cert, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "1 2\n3 5\n")
        assert code == EXIT_OK
        edited = re.sub("^case-tags: .*$", f"case-tags: {tags}", cert, flags=re.M)
        code, out, err = run(capsys, monkeypatch, ["verify"], cert + "\n" + edited)
        assert (code, out) == (EXIT_PARSE, "certificate 0: ok\n")
        assert err.startswith("input error: field 'case-tags' must be a JSON list of strings, got ")

    @pytest.mark.parametrize("tags", [None, "[]", '["true", "false"]', '["gf2:trace-one:n1"]'])
    def test_accepted(self, capsys, monkeypatch, tags):
        code, cert, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "1 2\n3 5\n")
        edited = re.sub("^case-tags: .*\n", "" if tags is None else f"case-tags: {tags}\n", cert, flags=re.M)
        assert edited != cert or tags is not None
        assert run(capsys, monkeypatch, ["verify"], edited)[:2] == (EXIT_OK, "certificate 0: ok\n")


# a document's header fields that disagree, or that name no known ring or
# schema: (fields over _document's, the error)
BAD_HEADERS = {
    "ring-vs-modulus": ({"ring": "Z6"}, "field 'ring' names Z6, but 'modulus' and 'trunc-degree' name Z3"),
    "ring-vs-degree": ({"ring": "Z3", "trunc-degree": "2"},
                       "field 'ring' names Z3, but 'modulus' and 'trunc-degree' name Z3[x]/(x^2)"),
    "ring-unparsed": ({"ring": "nonsense"}, "cannot parse matrix ring 'nonsense'"),
    "schema": ({"schema": "other"}, "field 'schema' must be nilclean-cert/1, got 'other'"),
}


class TestDocumentHeader:
    """decompose and verify read a document's ring from one reader: 'ring',
    'modulus' and 'trunc-degree' must name one ring, and a schema other than
    nilclean-cert/1 is refused."""

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("case", sorted(BAD_HEADERS))
    def test_refused(self, capsys, monkeypatch, command, case):
        fields, message = BAD_HEADERS[case]
        code, out, err = run(capsys, monkeypatch, [command], _document(**fields))
        assert code == EXIT_PARSE and out == ""
        assert err == f"input error: {message}\n"

    def test_examples(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["decompose"], "ring: Z6\nmodulus: 4\nA: [[1,2],[3,5]]\n")
        assert code == EXIT_PARSE
        code, cert, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "1 2\n3 5\n")
        assert code == EXIT_OK and "ring: Z6\n" in cert
        for old, new in (("ring: Z6", "ring: Z12"), ("ring: Z6", "ring: nonsense"),
                         ("schema: nilclean-cert/1", "schema: other")):
            code, out, _ = run(capsys, monkeypatch, ["verify"], cert.replace(old, new))
            assert code == EXIT_PARSE and out == ""

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_agreeing_fields_accepted(self, capsys, monkeypatch, command):
        # a field left out agrees with the others: the degree of a ring given
        # by name, and a ring given by 'ring' alone
        for fields in ({"ring": "Z3", "schema": "nilclean-cert/1"}, {"ring": "Z3", "trunc-degree": "1"},
                       {"ring": "Z3[x]/(x^2)", "A": "[[[1, 1]]]", "E": "[[[1]]]", "W": "[[[0, 1]]]",
                        "nilpotency-exponent": "2"}):
            code, _, err = run(capsys, monkeypatch, [command], _document(**fields))
            assert (code, err) == (EXIT_OK, "")
        text = _document().replace("modulus: 3\n", "ring: Z3\n")
        assert "modulus" not in text
        assert run(capsys, monkeypatch, [command], text)[0] == EXIT_OK


class TestRingFlags:
    """--modulus and --ring exclude each other, and a flag beside a document
    that names its own ring must name the same ring."""

    def test_modulus_beside_ring_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["decompose", "--modulus", "6", "--ring", "Z12"])
        assert exit_info.value.code == EXIT_PARSE
        assert "argument --ring: not allowed with argument --modulus" in capsys.readouterr().err

    def test_flag_against_document_ring(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", "12"], "ring: Z6\nA: [[5]]\n")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "input error: the document names ring Z6, but the flags name Z12\n"
        code, out, err = run(capsys, monkeypatch, ["decompose", "--ring", "Z6[x]/(x^2)"], "modulus: 6\nA: [[5]]\n")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "input error: the document names ring Z6, but the flags name Z6[x]/(x^2)\n"
        want = certificate_to_doc(decompose(RingMatrix.from_rows([[5]], zm_ring(6))))
        for flag in (["--modulus", "6"], ["--ring", "Z6"], []):
            assert run(capsys, monkeypatch, ["decompose", *flag], "ring: Z6\nA: [[5]]\n")[:2] == (EXIT_OK, want)


# ARABIC-INDIC DIGITS ONE, TWO and THREE, which int() and the regex class \d
# read as 1, 2 and 3
ONE, TWO, THREE = "\u0661", "\u0662", "\u0663"


class TestAsciiDigits:
    """Numbers in flags, ring names and property names are ASCII digits."""

    @pytest.mark.parametrize("args,bad", [
        (["decompose", "--modulus", THREE], THREE),
        (["decompose", "--exhaustive", "1", TWO], TWO),
        (["demo-obstruction", TWO], TWO),
    ], ids=["modulus", "exhaustive", "demo-obstruction"])
    def test_flag_refused(self, capsys, monkeypatch, args, bad):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and f"invalid int value: {bad!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("args,same", [
        (["decompose", "--modulus", " +0_3\t"], ["decompose", "--modulus", "3"]),
        (["decompose", "--exhaustive", "01", "+2"], ["decompose", "--exhaustive", "1", "2"]),
        (["demo-obstruction", " 0_2 "], ["demo-obstruction", "2"]),
    ], ids=["modulus", "exhaustive", "demo-obstruction"])
    def test_ascii_integers_as_int_reads_them(self, capsys, monkeypatch, args, same):
        got = run(capsys, monkeypatch, args, "1\n")
        assert got[0] == EXIT_OK and got == run(capsys, monkeypatch, same, "1\n")

    def test_ascii_non_integer_message_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["decompose", "--modulus", "3.0"])
        assert exit_info.value.code == EXIT_PARSE
        assert "argument --modulus: invalid int value: '3.0'" in capsys.readouterr().err

    @pytest.mark.parametrize("args,stdin", [
        (["decompose", "--ring", f"Z{THREE}"], "1\n"),
        (["decompose", "--ring", f"Z3[x]/(x^{TWO})"], "A: [[1]]\n"),
        (["decompose"], f"ring: Z{THREE}\nA: [[1]]\n"),
        (["decompose"], f"modulus: {THREE}\nA: [[1]]\n"),
        (["classify", f"Z{THREE}", "two-nil-clean"], ""),
        (["classify", f"M{TWO}(Z2)", "two-nil-clean"], ""),
        (["classify", f"M2(Z{TWO})", "two-nil-clean"], ""),
        (["classify", f"Z2[x]/(x^{TWO})", "two-nil-clean"], ""),
        (["classify", "Z4", f"generalized-{TWO}-like"], ""),
    ], ids=["ring-flag", "ring-flag-degree", "document-ring", "document-modulus", "zm",
            "matrix-size", "matrix-modulus", "trunc-degree", "generalized"])
    def test_name_refused(self, capsys, monkeypatch, args, stdin):
        code, out, err = run(capsys, monkeypatch, args, stdin)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("input error: ") and "Traceback" not in err


# entries that from_rows reads entry by entry and refuses: floats (integral
# ones too), strings and objects (empty ones too), and coefficient lists
# longer than the ring's degree
NON_INTEGER_ENTRIES = {
    "float": {"A": "[[1.0]]"},
    "float-beside-ints": {"A": "[[1, 2.0], [3, 4]]"},
    "string": {"A": '[["1"]]'},
    "float-coefficient": {"trunc-degree": "2", "A": "[[[1, 0.5]]]"},
    "polynomial-over-zm": {"A": "[[[1, 2]]]"},
    "overlong-coefficients": {"trunc-degree": "2", "A": "[[[1, 2, 3]]]"},
    "empty-object": {"A": "[[{}]]"},  # these three used to read as 0
    "empty-string": {"A": '[[""]]'},
    "empty-string-beside-a-list": {"trunc-degree": "2", "A": '[["", [1, 2]]]'},
}


class TestNonIntegerEntries:
    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("fields", NON_INTEGER_ENTRIES.values(), ids=NON_INTEGER_ENTRIES.keys())
    def test_parse_exit_without_traceback(self, capsys, monkeypatch, command, fields):
        code, _, err = run(capsys, monkeypatch, [command], _document(**fields))
        assert code == EXIT_PARSE
        assert "input error" in err and "Traceback" not in err


def test_verify_refuses_empty_entries(capsys, monkeypatch):
    """An empty string or object entry has no coefficient to refuse, and
    used to read as 0, so this certificate verified."""
    text = _document(modulus="6", A="[[0]]", E="[[{}]]", F='[[""]]', W="[[0]]")
    code, out, err = run(capsys, monkeypatch, ["verify"], text)
    assert code == EXIT_PARSE and out == ""
    assert "neither an integer nor a list of integers" in err and "Traceback" not in err


class TestInvalidUtf8:
    """Bytes that are not UTF-8 in --input end in exit 2, not a traceback."""

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_parse_exit_without_traceback(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"A: [[1]]\nmodulus: 3\xff\n")
        code, out, err = run(capsys, monkeypatch, [command, "--input", str(path)])
        assert code == EXIT_PARSE and out == ""
        assert "input error" in err and "not UTF-8" in err and "Traceback" not in err

    def test_verify_stops_mid_stream(self, capsys, monkeypatch, tmp_path):
        # far past the first buffer the file is decoded in, so the
        # certificates before the bad byte are checked and printed first
        good = _document().encode()
        path = tmp_path / "stream.txt"
        path.write_bytes(b"\n".join([good] * 300) + b"\nA: \xff\n\n" + good)
        code, out, err = run(capsys, monkeypatch, ["verify", "--input", str(path)])
        assert code == EXIT_PARSE
        assert "not UTF-8" in err and "Traceback" not in err
        lines = out.splitlines()
        assert 0 < len(lines) < 300
        assert lines == [f"certificate {i}: ok" for i in range(len(lines))]


HUGE = "9" * 5000  # int() refuses strings of more than 4,300 digits

OVERSIZED_INTEGER_INPUTS = {
    "generalized-n": (["classify", "Z2", f"generalized-{HUGE}-like"], ""),
    "classify-ring": (["classify", f"Z{HUGE}", "tripotent"], ""),
    "ring-flag": (["decompose", "--ring", f"Z{HUGE}"], "1\n"),
    "trunc-degree-flag": (["decompose", "--ring", f"Z6[x]/(x^{HUGE})"], "1\n"),
    "ring-field": (["decompose"], f"ring: Z{HUGE}\nA: [[1]]\n"),
    "matrix-entry": (["decompose"], _document(A=f"[[{HUGE}]]")),
    "verify-modulus": (["verify"], _document(modulus=HUGE)),
    "plain-row": (["decompose", "--modulus", "6"], f"1 {HUGE}\n2 3\n"),
    "plain-row-zeros": (["decompose", "--ring", "Z6"], "0" * 5000 + "\n"),
}


class TestOversizedIntegers:
    @pytest.mark.parametrize("args,stdin", OVERSIZED_INTEGER_INPUTS.values(),
                             ids=OVERSIZED_INTEGER_INPUTS.keys())
    def test_parse_exit_without_traceback(self, capsys, monkeypatch, args, stdin):
        code, _, err = run(capsys, monkeypatch, args, stdin)
        assert code == EXIT_PARSE
        assert "input error" in err and "Traceback" not in err

    def test_plain_row_names_the_length(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], f"1 -{HUGE}\n2 3\n")
        assert (code, out, err) == (EXIT_PARSE, "", "input error: integer with 5001 digits is too long\n")


OVERSIZED_RINGS = {
    "m200-z2": ["classify", "M200(Z2)", "two-nil-clean"],
    "m2000-z7": ["classify", "M2000(Z7)", "tripotent"],
    "m20000-z7": ["classify", "M20000(Z7)", "tripotent"],
    "trunc-degree": ["classify", "Z7[x]/(x^100000000)", "two-nil-clean"],
    "pairwise": ["classify", "M200(Z2)", "generalized-2-like"],
    # 2,048 elements, under the element cap, but 4,194,304 pairs to test
    "pairwise-z2-11": ["classify", "x".join(["Z2"] * 11), "generalized-3-like"],
}


class TestOversizedRings:
    """A ring over the cap is refused before its size is built."""

    @pytest.mark.parametrize("args", OVERSIZED_RINGS.values(), ids=OVERSIZED_RINGS.keys())
    def test_resource_exit_within_a_second(self, capsys, monkeypatch, args):
        start = time.perf_counter()
        code, _, err = run(capsys, monkeypatch, args)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        assert "resource cap" in err and "Traceback" not in err


NON_JSON_MATRICES = {
    "missing-bracket": "[[1]",
    "json-string": '"12"',
    "oversized-entry": f"[[{HUGE}]]",
}


class TestNonJsonMatrixFields:
    """A value json.loads refuses stays raw text; it must not be read as rows."""

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    @pytest.mark.parametrize("value", NON_JSON_MATRICES.values(), ids=NON_JSON_MATRICES.keys())
    def test_field_named(self, capsys, monkeypatch, command, value):
        code, _, err = run(capsys, monkeypatch, [command], _document(A=value))
        assert code == EXIT_PARSE
        assert "field 'A' is not a JSON matrix" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["E", "F", "W"])
    def test_other_certificate_fields(self, capsys, monkeypatch, key):
        code, _, err = run(capsys, monkeypatch, ["verify"], _document(**{key: "[[0]"}))
        assert code == EXIT_PARSE and f"field {key!r} is not a JSON matrix" in err


NEAR_2_31 = (2147483647, 2147483629)  # primes: int64 products of such entries wrap
DOC_KEYS = ("schema", "kind", "ring", "modulus", "trunc-degree", "n", "A", "E", "F", "W",
            "nilpotency-exponent", "case-tags", "verified")
FUZZ_SECONDS = 2.0  # per example; a well-formed document of this size takes milliseconds

_scalars = st.one_of(
    st.integers(-20, 20),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-9, 9), max_size=3),  # a polynomial entry
)
_matrices = st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 12), min_size=n, max_size=n), min_size=n, max_size=n)),
    st.lists(st.lists(_scalars, max_size=4), max_size=4),  # ragged or badly typed
)
_json_text = st.one_of(_matrices, _scalars).map(json.dumps)
_values = st.one_of(
    _json_text,
    _json_text.flatmap(lambda t: st.integers(0, len(t)).map(lambda cut: t[:cut])),  # truncated
    st.sampled_from([HUGE, f"[[{HUGE}]]", "[" * 5000 + "]" * 5000, "NaN", "1e400", "-0"]),
    st.integers(-3, 2**32).map(str),  # moduli and degrees, in and out of range
    st.sampled_from(["Z6", "Z5", "Z12", "Z6[x]/(x^2)", "Z0", "GF(4)", f"Z{HUGE}",
                     *(f"Z{p}" for p in NEAR_2_31)]),
    st.text(max_size=12),
)
_keys = st.one_of(st.sampled_from(DOC_KEYS), st.text(max_size=6))


@st.composite
def _documents(draw):
    """A document from scratch, or a well-formed one with some fields replaced."""
    fields = {}
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        entry = st.integers(0, 12) | st.integers(2**30, 2**31)
        square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        fields = {key: json.dumps(draw(square)) for key in ("A", "E", "F", "W")}
        fields.update({"modulus": str(draw(st.sampled_from([2, 3, 4, 5, 6, 12, *NEAR_2_31]))),
                       "trunc-degree": str(draw(st.integers(1, 3))),
                       "nilpotency-exponent": str(draw(st.integers(1, 4)))})
    fields.update(draw(st.dictionaries(_keys, _values, max_size=6)))
    return "".join(f"{key}: {value}\n" for key, value in fields.items())


# the flags each command reads, with rings over primes near 2^31 among them
_FLAGS = {
    "decompose": [("--format", "plain"), ("--triangular",), ("--ring", "Z3"), ("--ring", "Z6"),
                  ("--ring", "Z6[x]/(x^2)"), ("--ring", "Z2147483647"), ("--ring", "Z2147483629"),
                  ("--modulus", "5"), ("--modulus", "2147483629")],
    "verify": [()],  # no flag: verify reads only --input, and the fuzz feeds stdin
}
_argv = st.sampled_from(sorted(_FLAGS)).flatmap(lambda command: st.lists(
    st.sampled_from(_FLAGS[command]), max_size=2, unique=True).map(
    lambda flags: [command] + [token for flag in flags for token in flag]))


_plain_tokens = st.one_of(
    st.integers(-20, 20).map(str),
    st.integers(-(2**80), 2**80).map(str),
    st.sampled_from([HUGE, f"-{HUGE}", "0" * 5000, "9" * 4300, "+7", "-0", "1.5", "x", "\u0663"]),
)


@st.composite
def _plain_rows(draw):
    """Plain whitespace rows, square or not, at times with a token that is
    no ASCII integer, between blank and '#' comment lines."""
    n = draw(st.integers(1, 4))
    rows = draw(st.one_of(_square(n, _plain_tokens),
                          st.lists(st.lists(_plain_tokens, min_size=1, max_size=4), min_size=1, max_size=4)))
    lines = [draw(st.sampled_from([" ", "\t"])).join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "# note"])))
    return "\n".join(lines) + "\n"


_plain_argv = st.tuples(
    st.sampled_from([("--modulus", "6"), ("--modulus", "72"), ("--modulus", "2147483629"), ("--ring", "Z3"),
                     ("--ring", "Z72"), ("--ring", "Z2147483647"), ("--ring", "Z6[x]/(x^2)")]),
    st.sampled_from([(), ("--triangular",), ("--format", "plain")]),
).map(lambda flags: ["decompose", *flags[0], *flags[1]])


class TestDocumentFuzz:
    """Arbitrary decompose and verify documents, under any of the flags
    these commands read, end in a documented exit code, without a traceback,
    in bounded time."""

    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(argv=_argv, text=_documents())
    def test_documented_exit_code(self, capsys, monkeypatch, argv, text):
        start = time.perf_counter()
        try:
            code, _, err = run(capsys, monkeypatch, argv, text)
        except SystemExit as exit_info:  # argparse refuses --ring beside --modulus
            code, err = exit_info.code, capsys.readouterr().err
        assert time.perf_counter() - start < FUZZ_SECONDS
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_VERIFY, EXIT_RESOURCE)
        assert "Traceback" not in err

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(argv=_plain_argv, text=_plain_rows())
    def test_plain_rows(self, capsys, monkeypatch, argv, text):
        """Plain whitespace rows under --modulus or --ring, with integers of
        any length, end in a documented exit code without a traceback."""
        start = time.perf_counter()
        code, _, err = run(capsys, monkeypatch, argv, text)
        assert time.perf_counter() - start < FUZZ_SECONDS
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_RESOURCE)
        assert "Traceback" not in err

    @settings(max_examples=100, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(docs=st.lists(_documents(), min_size=2, max_size=4),
           seps=st.lists(st.sampled_from(["\n", " \n", "\n\n", "\t\n \n"]), min_size=3, max_size=3))
    def test_verify_stream(self, capsys, monkeypatch, docs, seps):
        """A stream of such documents prints one verdict per certificate,
        numbered from 0 in order, up to the first that fails to parse."""
        text = "".join(doc + sep for doc, sep in zip(docs, seps * 2))
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["verify"], text)
        assert time.perf_counter() - start < FUZZ_SECONDS * len(docs)
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_VERIFY, EXIT_RESOURCE)
        assert "Traceback" not in err
        verdicts = out.splitlines()
        assert all(re.fullmatch(rf"certificate {i}: (ok|FAILED check: .+)", line)
                   for i, line in enumerate(verdicts))
        if code in (EXIT_OK, EXIT_VERIFY):
            assert verdicts and any("FAILED" in line for line in verdicts) == (code == EXIT_VERIFY)


def _bool_in_lists(x):
    return isinstance(x, bool) or isinstance(x, list) and any(map(_bool_in_lists, x))


def _parse_every_value(text):
    """parse_document as it was before it skipped values that cannot start
    JSON: json.loads on every value, the raw text where that fails; a key
    given twice is refused, and so is a list with true or false among its
    items or those of the lists in it.  A text of comments alone has no field."""
    doc = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ": " not in line and not line.endswith(":"):
            raise InputError(f"line {lineno}")
        key, _, value = line.partition(":")
        if key.strip() in doc:
            raise InputError(f"line {lineno}")
        try:
            doc[key.strip()] = json.loads(value.strip())
        except (ValueError, RecursionError):
            doc[key.strip()] = value.strip()
        if isinstance(doc[key.strip()], list) and _bool_in_lists(doc[key.strip()]):
            raise InputError(f"line {lineno}")
    return doc


def _certificate_from_doc_per_field(doc):
    """certificate_from_doc as it was before it converted the four matrices
    in one stack: one from_rows per field, in the order A, E, F, W, each
    after its own check that the field is a JSON list."""
    def matrix(key):
        if not isinstance(doc[key], list):
            raise InputError(f"field {key!r} is not a JSON matrix: {doc[key]!r:.40}")
        return RingMatrix.from_rows(doc[key], ring)

    try:
        ring = MatrixRing(cli._doc_int(doc, "modulus"), cli._doc_int(doc, "trunc-degree", 1))
        mats = {key: matrix(key) for key in ("A", "E", "F", "W")}
        exponent = cli._doc_int(doc, "nilpotency-exponent")
        tags = tuple(doc.get("case-tags", []))
    except KeyError as missing:
        raise InputError(f"certificate document lacks field {missing}")
    except (TypeError, ValueError) as bad:
        raise InputError(f"malformed certificate document: {bad}")
    n = mats["A"].n
    if any(mat.n != n for mat in mats.values()):
        raise InputError("certificate matrices disagree in dimension")
    if "n" in doc and cli._doc_int(doc, "n") != n:
        raise InputError("declared dimension does not match the matrices")
    return DecompositionCertificate(mats["A"], mats["E"], mats["F"], mats["W"], exponent, tags)


def _reference_certificate_doc(cert):
    """certificate_to_doc as json.dumps renders every non-string value."""
    ring = cert.a.ring
    pairs = [("schema", "nilclean-cert/1"), ("kind", "certificate"), ("ring", ring.describe()),
             ("modulus", ring.m), ("trunc-degree", ring.d), ("n", cert.a.n),
             *((key, x.to_rows()) for key, x in zip("AEFW", (cert.a, cert.e, cert.f, cert.w))),
             ("nilpotency-exponent", cert.nilpotency_exponent),
             ("case-tags", list(cert.case_tags)), ("verified", cert.verified)]
    return "".join(f"{key}: {value if isinstance(value, str) else json.dumps(value)}\n"
                   for key, value in pairs)


class TestCertificateEmit:
    """str() renders the ints and int matrices of a certificate byte for byte
    as json.dumps does, for moduli up to 2^31, d = 1 and d > 1."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_bytes_as_json(self, data):
        m = data.draw(st.sampled_from([2, 3, 6, 72, 2**31 - 1, 2**31]))
        d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        value = st.integers(0, m - 1) | st.sampled_from([0, m - 1])
        entry = value if d == 1 else st.lists(value, min_size=1, max_size=d)
        square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        mats = [RingMatrix.from_rows(data.draw(square), MatrixRing(m, d)) for _ in "AEFW"]
        cert = DecompositionCertificate(
            *mats, data.draw(st.none() | st.integers(1, 2**31)),
            tuple(data.draw(st.lists(st.sampled_from(["gf3:trace-one:n2", "gf2:trace-zero:n1"]),
                                     max_size=3))),
            data.draw(st.booleans()))
        assert certificate_to_doc(cert) == _reference_certificate_doc(cert)

    def test_decompositions(self, rng):
        for ring in (zm_ring(72), zm_ring(2**31), MatrixRing(6, 3)):
            cert = decompose(RingMatrix.random(4, ring, rng))
            assert certificate_to_doc(cert) == _reference_certificate_doc(cert)

    @pytest.mark.parametrize("tags", [
        (),
        ("gf2:zero:n1", "gf3:zero:n1",
         *(f"gf{p}:j{j}:n{d}" for p in (2, 3) for d in range(1, 65) for j in range(d + 1))),
        ("é", "gf3:ü:n2", "\u2603", "\U0001f600", "\ud800"),
        ('"',), ("\\",), ('a"b\\c',),
        ("\x00", "\x01", "\x1f\x7f", "\n\t\r\b\f"), ("",),
    ], ids=["empty", "every-tag", "non-ascii", "quote", "backslash", "both", "control", "empty-str"])
    def test_case_tags_as_json_dumps(self, tags):
        """The case-tags line is json.dumps of the tag list, as emit_document
        renders it, for every tag decompose makes and for any str."""
        one = RingMatrix.identity(1, zm_ring(2))
        doc = certificate_to_doc(DecompositionCertificate(one, one, one, one, 1, tags))
        assert f"\ncase-tags: {json.dumps(list(tags))}\n" in doc
        assert doc == emit_document(list(parse_document(doc).items()))

    def test_non_str_tag_is_refused(self):
        one = RingMatrix.identity(1, zm_ring(2))
        for tag in (1, None, ["gf2:j0:n1"], b"gf2:j0:n1"):
            with pytest.raises(TypeError):
                certificate_to_doc(DecompositionCertificate(one, one, one, one, 1, (tag,)))


class TestParseDocument:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(_keys, st.one_of(_values, st.sampled_from(
        ["true", "false", "null", "NaN", "Infinity", "-Infinity", "nullx", "True", "tru", "1e5",
         "+1", ".5", "\ufeff1", "\u0661", "Z2", "nilclean-cert/1", "certificate", "", "[1] x",
         "1 2", "[1]]", "{}x", HUGE, f"-{HUGE}", f"[{HUGE}]", f"[1, {HUGE}]",
         "[" * 5000 + "]" * 5000, "[" * 5000, '{"a": ' * 2000 + "1" + "}" * 2000]))),
        min_size=1, max_size=5))
    def test_same_as_json_on_every_value(self, fields):
        text = "".join(f"{key}: {value}\n" for key, value in fields)

        def outcome(parse):
            try:
                return repr(parse(text))
            except InputError:
                return InputError

        assert outcome(parse_document) == outcome(_parse_every_value)


_MISSING = object()


def _square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def _certificate_fields(draw):
    """A certificate document's fields, each matrix well formed for its ring
    or, at times, replaced: ragged rows, polynomial entries of mixed length,
    ints past int64, entries of no integer kind, another dimension (0
    included), a value that is not a list, or no field at all.  The
    dimension may be declared, rightly or not, and the exponent be missing."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coefficient = st.integers(0, 12)
    entry = coefficient if d == 1 else st.lists(coefficient, min_size=d, max_size=d)
    odd = st.one_of(
        _square(n, st.lists(coefficient, max_size=d + 1)),
        _square(n, st.one_of(coefficient, st.integers(2**63, 2**70), st.integers(-(2**70), -1))),
        _square(n, st.one_of(coefficient, st.sampled_from([1.5, "1", "", {}, None, [2**64], [1.5]]))),
        st.integers(1, 4).flatmap(lambda k: _square(k, entry)),
        st.lists(st.lists(entry, max_size=4), max_size=4),
        st.sampled_from([[], 5, "[[1]", "Z6", {}, None, _MISSING]),
    )
    doc = {"modulus": draw(st.sampled_from([2, 3, 6, 72])), "trunc-degree": d}
    for key in ("A", "E", "F", "W"):
        doc[key] = draw(odd if draw(st.integers(0, 3)) == 0 else _square(n, entry))
    if draw(st.booleans()):
        doc["n"] = draw(st.sampled_from([n, n + 1]))
    if draw(st.integers(0, 5)) < 5:
        doc["nilpotency-exponent"] = draw(st.integers(1, 4))
    doc["case-tags"] = draw(st.lists(st.sampled_from(["gf3:trace-one:n2"]), max_size=1))
    return {key: value for key, value in doc.items() if value is not _MISSING}


class TestCertificateFromDoc:
    """One stacked conversion of A, E, F and W reads every document as one
    from_rows per field did: the same certificate, or the same error."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_certificate_fields())
    def test_same_as_one_matrix_at_a_time(self, doc):
        def outcome(read):
            try:
                cert = read(json.loads(json.dumps(doc)))
            except Exception as err:
                return type(err), str(err)
            return repr(cert), [x.coeffs.dtype for x in (cert.a, cert.e, cert.f, cert.w)]

        assert outcome(certificate_from_doc) == outcome(_certificate_from_doc_per_field)

    def test_matrices_are_views_of_one_stack(self):
        doc = parse_document("modulus: 6\ntrunc-degree: 2\nA: [[[1, 1]]]\nE: [[[1, 0]]]\n"
                             "F: [[[0, 0]]]\nW: [[[0, 7]]]\nnilpotency-exponent: 2\n")
        cert = certificate_from_doc(doc)
        mats = (cert.a, cert.e, cert.f, cert.w)
        stack = cert.a.coeffs.base
        assert stack.shape == (4, 2, 1, 1) and all(x.coeffs.base is stack for x in mats)
        assert all(x.ring is cert.a.ring for x in mats)
        assert cert.w.to_rows() == [[[0, 1]]] and verify_certificate(cert)


class TestNoBoolScan:
    """Every matrix the CLI reads takes the stacked conversion, which skips
    from_rows' search for a bool: parse_document refuses JSON true and
    false, and plain rows are digit runs."""

    def test_cli_matrices_skip_the_scan(self, capsys, monkeypatch):
        a = RingMatrix.from_rows([[5, 1], [1, 2]], zm_ring(6))
        cert = certificate_to_doc(decompose(a))
        tampered = certificate_to_doc(DecompositionCertificate(a, a, a, a, 1, ()))

        def scan(rows):
            raise AssertionError("the CLI ran the bool scan")

        monkeypatch.setattr("nilclean.matrix._has_bool_entry", scan)
        for args, stdin in ((["decompose"], _matrix_document(a)), (["decompose", "--modulus", "6"], "5 1\n1 2\n")):
            assert run(capsys, monkeypatch, args, stdin) == (EXIT_OK, cert, "")
        code, out, err = run(capsys, monkeypatch, ["verify"], "\n".join([cert, tampered, cert]))
        assert (code, err) == (EXIT_VERIFY, "")
        assert out.splitlines()[0::2] == ["certificate 0: ok", "certificate 2: ok"]
        assert out.splitlines()[1].startswith("certificate 1: FAILED check: ")


_tiny_factors = st.one_of(  # at most 64 elements
    st.integers(2, 64).map(lambda m: f"Z{m}"),
    st.integers(2, 64).map(lambda m: f"M1(Z{m})"),
    st.just("M2(Z2)"),
    st.tuples(st.integers(2, 8), st.integers(1, 6)).filter(lambda md: md[0] ** md[1] <= 64)
    .map(lambda md: f"Z{md[0]}[x]/(x^{md[1]})"),
)
_huge_factors = st.one_of(  # far over the 10^6 cap
    st.integers(10**7, 10**4000).map(lambda m: f"Z{m}"),
    st.tuples(st.integers(5, 10**6), st.integers(2, 10**9)).map(lambda nm: f"M{nm[0]}(Z{nm[1]})"),
    st.tuples(st.integers(2, 10**9), st.integers(21, 10**9)).map(lambda md: f"Z{md[0]}[x]/(x^{md[1]})"),
)
_descriptors = st.one_of(
    st.sampled_from(["Z2", "Z5", "Z6", "Z3xZ3", "M2(Z2)", "Z4[x]/(x^2)"]),
    _tiny_factors,
    st.tuples(st.lists(st.one_of(_tiny_factors, _huge_factors), max_size=2), _huge_factors,
              st.lists(st.one_of(_tiny_factors, _huge_factors), max_size=2), st.sampled_from("x*"))
    .map(lambda t: t[3].join(t[0] + [t[1]] + t[2])),
    st.sampled_from(["", "Q5", "Z", "Z1", "Z0", "M0(Z2)", "Z2[x]/(x^0)", "M2(Z2", "Z6yZ2", f"Z{HUGE}"]),
)
_property_items = st.one_of(
    st.sampled_from(sorted(classifier.PROPERTIES)),
    st.text(max_size=8),  # unknown names, commas and whitespace among them
    st.sampled_from(["", " ", " nil-clean\t", "generalized-0-like", "generalized-1-like",
                     "generalized-007-like", "generalized-2-like", f"generalized-{HUGE}-like",
                     f"generalized-{'9' * 4000}-like"]),
)


class TestClassifyFuzz:
    """classify on descriptors that are tiny or far over the cap, with any
    property list, ends in a documented exit code without a traceback."""

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(ring=_descriptors, properties=st.lists(_property_items, min_size=1, max_size=4).map(",".join))
    def test_documented_exit_code(self, capsys, monkeypatch, ring, properties):
        start = time.perf_counter()
        code, _, err = run(capsys, monkeypatch, ["classify", ring, properties])
        assert time.perf_counter() - start < FUZZ_SECONDS
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_RESOURCE)
        assert "Traceback" not in err


class TestFlags:
    @pytest.mark.parametrize("args", [["decompose"], ["classify", "Z2", "nil-clean"],
                                      ["verify"], ["demo-obstruction", "2"]])
    def test_no_seed_flag(self, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            main(args + ["--seed", "1"])
        assert exit_info.value.code == EXIT_PARSE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    # the options each command reads, besides --help
    READ = {
        "decompose": {"--input", "--format", "--modulus", "--ring", "--triangular", "--exhaustive"},
        "classify": {"--format"},
        "verify": {"--input"},
        "demo-obstruction": {"--format"},
    }

    def test_each_command_takes_the_flags_it_reads(self):
        (commands,) = [action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        taken = {name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
                 for name, sub in commands.items()}
        assert taken == self.READ

    def test_rcf_is_gone(self, capsys):
        """The rational canonical form command was removed: naming it is an
        argparse error, and --help lists the four commands left."""
        with pytest.raises(SystemExit) as exit_info:
            main(["rcf"])
        assert exit_info.value.code == EXIT_PARSE
        assert "invalid choice: 'rcf'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == EXIT_OK
        assert "{decompose,classify,verify,demo-obstruction}" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [["verify", "--format", "plain"],
                                      ["classify", "Z6", "tripotent", "--input", "F"],
                                      ["demo-obstruction", "2", "--input", "F"]])
    def test_unread_flag_refused(self, capsys, args):
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == EXIT_PARSE
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in err and "Traceback" not in err


PUBLIC_NAMES = [
    "DecompositionCertificate",
    "InputError", "InternalCheckError", "MatFactor", "MatrixRing",
    "NilcleanError", "PropertyReport", "ResourceCapError", "RingDescriptor",
    "RingMatrix", "TruncFactor", "UnsupportedRingError", "ZmFactor",
    "decide", "decompose", "decompose_triangular",
    "min_nilpotent_index_over_decompositions", "parse_ring_descriptor",
    "verify_certificate", "zm_ring",
]


class TestPublicNames:
    def test_all(self):
        assert sorted(nilclean.__all__) == PUBLIC_NAMES

    def test_decompose_is_the_function(self):
        # the package attribute, and so `import nilclean.decompose as d`, is
        # the function; importlib.import_module reaches the submodule, as the
        # benchmark imports it
        import nilclean.decompose as via_import

        module = importlib.import_module("nilclean.decompose")
        assert isinstance(module, types.ModuleType) and module.__name__ == "nilclean.decompose"
        assert nilclean.decompose is via_import is module.decompose
        assert not isinstance(nilclean.decompose, types.ModuleType)


class TestInternalCheck:
    def test_failed_self_check_has_own_exit_code(self, capsys, monkeypatch):
        def broken(cert):
            cert.failure = CHECK_SUM
            return False

        monkeypatch.setattr(importlib.import_module("nilclean.decompose"),
                            "verify_certificate", broken)
        code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", "3"], "0 1\n1 0\n")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert CHECK_SUM in err and "[[0, 1], [1, 0]]" in err
        assert "Traceback" not in err


class TestGoldenSweep:
    def test_exhaustive_m2_z3_bytes(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["decompose", "--exhaustive", "2", "3"])
        assert code == EXIT_OK
        assert "81 verified certificates" in err
        assert out == GOLDEN.read_text()

    # SHA-256 of the stdout of decompose --exhaustive N M, recorded before the
    # conjugation and the document were rewritten for speed: every certificate
    # of M3(Z3) and M3(Z2) must keep its bytes.  Re-pinned, with the golden
    # M2(Z3) file, when the trace family replaced the per-field templates
    @pytest.mark.parametrize("n,m,count,digest", [
        (3, 3, 19683, "db19adc67fcfe512f3ec6a0dd15e702bdbdba80fa503dadbc28fc6f0151f84f9"),
        (3, 2, 512, "75320caf69de3ab63f2841eb305fb50f639cc964dd757ea6926a34912f50c99d"),
    ], ids=["m3-z3", "m3-z2"])
    def test_exhaustive_digests(self, capsys, monkeypatch, n, m, count, digest):
        code, out, err = run(capsys, monkeypatch, ["decompose", "--exhaustive", str(n), str(m)])
        assert code == EXIT_OK
        assert f"{count} verified certificates" in err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_certificates_reverify(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--input", str(GOLDEN)])
        assert code == EXIT_OK
        assert out.count(": ok") == 81


class TestClassifyCommand:
    def test_z3xz3(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["classify", "Z3xZ3", "two-nil-clean,weakly-nil-clean"]
        )
        assert code == EXIT_OK
        docs = documents(out)
        by_name = {d["property"]: d for d in docs}
        assert by_name["two-nil-clean"]["holds"] is True
        assert by_name["weakly-nil-clean"]["holds"] is False
        assert by_name["weakly-nil-clean"]["counterexample"] == [1, 2]

    def test_z6_tripotent_plain(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["classify", "Z6", "tripotent", "--format", "plain"]
        )
        assert code == EXIT_OK and out.strip() == "tripotent: true"

    def test_plain_format(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["classify", "Z3xZ3", "two-nil-clean,weakly-nil-clean", "--format", "plain"])
        assert code == EXIT_OK
        assert out == "two-nil-clean: true\nweakly-nil-clean: false\n"

    def test_m2z2_strongly(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["classify", "M2(Z2)", "strongly-two-nil-clean"]
        )
        assert code == EXIT_OK
        assert documents(out)[0]["holds"] is False

    def test_generalized_name(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["classify", "Z2", "generalized-3-like", "--format", "plain"]
        )
        assert code == EXIT_OK and "generalized-3-like: true" in out

    def test_unknown_property(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["classify", "Z6", "left-perfect"])
        assert code == EXIT_PARSE

    def test_resource_cap(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["classify", "M2(Z36)", "two-nil-clean"])
        assert code == EXIT_RESOURCE

    def test_m3z3_two_nil_clean_within_five_seconds(self, capsys, monkeypatch):
        # 19,683 elements, 236 idempotents, 729 nilpotents: the search must
        # stop at each element's first split, not build every sum first
        start = time.perf_counter()
        code, out, _ = run(capsys, monkeypatch, ["classify", "M3(Z3)", "two-nil-clean"])
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_OK
        doc = parse_document(out)
        assert doc["holds"] is True

        def element(value):
            return (tuple(x for row in value[0] for x in row),)

        report = PropertyReport("two-nil-clean", parse_ring_descriptor("M3(Z3)"), True,
                                element(doc["witness-element"]),
                                tuple(element(part) for part in doc["witness-parts"]))
        assert report.witness_element == ((1, 0, 0, 0, 1, 0, 0, 0, 1),)
        assert report.replay()

    def test_z2_power_14_two_nil_clean_within_five_seconds(self, capsys, monkeypatch):
        # 16,384 elements, all idempotent: the sums e + w over |I||N| pairs
        # cost 16,384 additions where e + f over |I|^2 pairs would cost 2.7e8
        ring = "x".join(["Z2"] * 14)
        start = time.perf_counter()
        code, out, _ = run(capsys, monkeypatch, ["classify", ring, "two-nil-clean"])
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_OK
        doc = parse_document(out)
        report = PropertyReport("two-nil-clean", parse_ring_descriptor(ring), doc["holds"],
                                tuple(doc["witness-element"]),
                                tuple(tuple(part) for part in doc["witness-parts"]))
        assert report.holds and report.witness_element == (1,) * 14
        assert report.replay()

    def test_z4_power_8_strongly_two_nil_clean_within_five_seconds(self, capsys, monkeypatch):
        # 65,536 elements, 256 idempotents: 65,536 idempotent pairs, under the work budget
        start = time.perf_counter()
        code, out, _ = run(capsys, monkeypatch,
                           ["classify", "x".join(["Z4"] * 8), "strongly-two-nil-clean", "--format", "plain"])
        assert time.perf_counter() - start < 5.0
        assert code == EXIT_OK and out == "strongly-two-nil-clean: true\n"

    @pytest.mark.parametrize("ring,name,estimate", [
        ("x".join(["Z2"] * 14), "strongly-two-nil-clean", "268,435,456"),  # |I|^2 = 2^28
        ("M2(Z2)x" + "x".join(["Z2"] * 12), "strongly-sit", "2,147,483,648"),  # |R||I| = 2^31
    ])
    def test_over_the_work_budget_within_a_second(self, capsys, monkeypatch, ring, name, estimate):
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["classify", ring, name])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE and out == ""
        assert f"about {estimate} candidates" in err and "work budget 16,777,216" in err

    def test_pairwise_identity_near_the_cap_within_a_second(self, capsys, monkeypatch):
        # 729 elements, 531,441 pairs, and the identity holds, so every pair is tried
        ring = "x".join(["Z3"] * 6)
        start = time.perf_counter()
        code, out, _ = run(capsys, monkeypatch, ["classify", ring, "generalized-3-like"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK
        doc = parse_document(out)
        assert doc["holds"] is True
        assert PropertyReport(doc["property"], parse_ring_descriptor(doc["ring"]), doc["holds"]).replay()


class TestBenchGateContract:
    """The benchmark's gate rebuilds reports from documents by the factor
    classes: a residue is an int, an M_n factor nested rows, and a
    Z_m[x]/(x^d) factor a flat list."""

    def test_factor_classes_and_rendered_values(self):
        ring = parse_ring_descriptor("Z4xM2(Z3)xZ2[x]/(x^3)")
        assert [type(f) for f in ring.factors] == [classifier.ZmFactor, classifier.MatFactor,
                                                  classifier.TruncFactor]
        doc = parse_document(cli.report_to_doc(classifier.decide("two-nil-clean", ring)))
        assert doc["witness-element"] == [1, [[1, 0], [0, 1]], [1, 0, 0]]
        for value in [doc["witness-element"], *doc["witness-parts"]]:
            assert type(value[0]) is int
            assert len(value[1]) == 2 and all(type(row) is list and len(row) == 2 for row in value[1])
            assert len(value[2]) == 3 and all(type(x) is int for x in value[2])


class TestImportGraph:
    """Start-up leaves the oracle out: the package serves its names on first
    use, and only classify and demo-obstruction import it."""

    @staticmethod
    def _probe(code):
        src = str(pathlib.Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True).stdout.split()

    @pytest.mark.parametrize("module", ["nilclean", "nilclean.cli"])
    def test_import_leaves_the_oracle_out(self, module):
        assert self._probe(f"import sys, {module}; print('nilclean.classifier' in sys.modules)") \
            == ["False"]

    def test_oracle_names_resolve_on_use(self):
        out = self._probe(
            "import sys, nilclean\n"
            "names = {}\n"
            "exec('from nilclean import *', names)\n"
            "oracle = sys.modules['nilclean.classifier']\n"
            "print(names['decide'] is nilclean.decide is oracle.decide,\n"
            "      names['RingDescriptor'] is oracle.RingDescriptor, hasattr(nilclean, 'PROPERTIES'),\n"
            "      *nilclean.__all__)\n")
        assert out == ["True", "True", "False", *PUBLIC_NAMES]


class TestVerifyCommand:
    def _certificate_text(self, rng, m=6, n=2):
        cert = decompose(RingMatrix.random(n, zm_ring(m), rng))
        return certificate_to_doc(cert)

    def test_fresh_certificate_passes(self, capsys, monkeypatch, rng):
        code, out, _ = run(capsys, monkeypatch, ["verify"], self._certificate_text(rng))
        assert code == EXIT_OK and "ok" in out

    def test_tampered_entry_names_check(self, capsys, monkeypatch, rng):
        text = self._certificate_text(rng)
        doc = parse_document(text)
        doc["E"][0][0] = (doc["E"][0][0] + 1) % 6
        cert = certificate_from_doc(doc)
        assert not verify_certificate(cert)
        tampered = certificate_to_doc(cert).replace("verified: false", "verified: true")
        code, out, _ = run(capsys, monkeypatch, ["verify"], tampered)
        assert code == EXIT_VERIFY
        assert "FAILED check:" in out

    def test_wrong_exponent_names_check(self, capsys, monkeypatch, rng):
        text = self._certificate_text(rng)
        doc = parse_document(text)
        doc["nilpotency-exponent"] = int(doc["nilpotency-exponent"]) + 7
        rendered = "\n".join(
            f"{k}: {v if isinstance(v, str) else json.dumps(v)}" for k, v in doc.items()
        )
        code, out, _ = run(capsys, monkeypatch, ["verify"], rendered)
        assert code == EXIT_VERIFY
        assert "nilpotency exponent" in out

    def test_malformed_document(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["verify"], "schema: nilclean-cert/1\nkind: certificate\nA: [[1]]\n")
        assert code == EXIT_PARSE

    def test_empty_input(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["verify"], "")
        assert code == EXIT_PARSE

    def test_trunc_degree_over_cap(self, capsys, monkeypatch):
        doc = ("schema: nilclean-cert/1\nkind: certificate\nmodulus: 6\n"
               "trunc-degree: 100000000\nA: [[[1]]]\nE: [[[1]]]\nF: [[[0]]]\n"
               "W: [[[0]]]\nnilpotency-exponent: 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, monkeypatch, ["verify"], doc)
        assert code == EXIT_RESOURCE and "cap" in err
        assert time.perf_counter() - start < 1.0


def _stream_pool():
    """Certificates over Z6 and Z3[x]/(x^2), some tampered, and a document
    that is not a certificate."""
    gen = np.random.default_rng(7)
    docs = []
    for ring in (zm_ring(6), MatrixRing(3, 2)):
        for n in (1, 2, 3):
            cert = decompose(RingMatrix.random(n, ring, gen))
            docs.append(certificate_to_doc(cert))
            docs.append(certificate_to_doc(cert).replace("nilpotency-exponent: ",
                                                         "nilpotency-exponent: 1"))
    return docs + ["schema: nilclean-cert/1\nkind: report\nholds: true\n"]


STREAM_POOL = _stream_pool()
SEPARATORS = ["\n", "  \n", "\n\n\n", "\t\n \n", " \x0c\n"]


def reference_documents(text):
    """The documents of a whole stream, split by the regular expression
    verify used before it streamed, less each block whose lines are all
    blank or '#' comments."""
    return [parse_document(c) for c in re.split(r"\n\s*\n", text.strip())
            if any(line.strip()[:1] not in ("", "#") for line in c.splitlines())]


def reference_verify(text):
    """The verdicts and exit code of verify on a whole stream, as
    reference_documents splits it."""
    docs = reference_documents(text)
    certs = [certificate_from_doc(d) for d in docs if d.get("kind", "certificate") == "certificate"]
    out = "".join(f"certificate {i}: ok\n" if verify_certificate(c)
                  else f"certificate {i}: FAILED check: {c.failure}\n" for i, c in enumerate(certs))
    return out, EXIT_PARSE if not certs else EXIT_VERIFY if "FAILED" in out else EXIT_OK


class TestVerifyStream:
    """verify reads, checks and prints one document at a time."""

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(picks=st.lists(st.integers(0, len(STREAM_POOL) - 1), min_size=1, max_size=6),
           seps=st.lists(st.sampled_from(SEPARATORS), min_size=7, max_size=7),
           crlf=st.booleans(), from_file=st.booleans())
    def test_separators_match_the_whole_stream_split(self, capsys, monkeypatch, tmp_path,
                                                     picks, seps, crlf, from_file):
        text = seps[0] + "".join(STREAM_POOL[i] + sep for i, sep in zip(picks, seps[1:]))
        text = text.replace("\n", "\r\n") if crlf else text
        args = ["verify"]
        if from_file:
            path = tmp_path / "stream.txt"
            path.write_bytes(text.encode())
            args += ["--input", str(path)]
        code, out, err = run(capsys, monkeypatch, args, "" if from_file else text)
        assert (out, code) == reference_verify(text), err

    def test_golden_separators(self, capsys, monkeypatch):
        docs = GOLDEN.read_text().split("\n\n")
        for sep in SEPARATORS:
            text = ("\n" + sep).join(docs)
            code, out, _ = run(capsys, monkeypatch, ["verify"], text)
            assert code == EXIT_OK and out == "".join(f"certificate {i}: ok\n" for i in range(81))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.text(alphabet="ab: 1#[]\n\r\t\x0c", max_size=40))
    def test_split_documents_matches_the_regular_expression(self, text):
        def outcome(split):
            try:
                return split()
            except InputError:
                return InputError

        assert outcome(lambda: documents(text)) == outcome(lambda: reference_documents(text))

    def test_malformed_document_mid_stream(self, capsys, monkeypatch):
        good = STREAM_POOL[0]
        text = "\n".join([good, good, "this line is not a field\n", good])
        code, out, err = run(capsys, monkeypatch, ["verify"], text)
        assert code == EXIT_PARSE
        assert out == "certificate 0: ok\ncertificate 1: ok\n"
        assert "input error" in err and "not 'key: value'" in err

    def test_certificate_missing_a_field_mid_stream(self, capsys, monkeypatch):
        text = "\n".join([STREAM_POOL[0], "kind: certificate\nmodulus: 6\n", STREAM_POOL[0]])
        code, out, err = run(capsys, monkeypatch, ["verify"], text)
        assert code == EXIT_PARSE and out == "certificate 0: ok\n"
        assert "lacks field" in err

    def test_only_other_documents(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["verify"], STREAM_POOL[-1] + "\n" + STREAM_POOL[-1])
        assert code == EXIT_PARSE and out == "" and "no certificate documents" in err

    def test_peak_memory_flat_in_the_number_of_documents(self, monkeypatch, tmp_path):
        def peak(count):
            path = tmp_path / f"stream-{count}.txt"
            path.write_text("\n".join([_document()] * count))
            with open(os.devnull, "w") as sink:
                monkeypatch.setattr("sys.stdout", sink)
                tracemalloc.start()
                try:
                    assert main(["verify", "--input", str(path)]) == EXIT_OK
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(10)  # the caches a first call fills
        small, large = peak(1_000), peak(20_000)
        assert large - small <= 1024 * 1024, (small, large)


def _matrix_document(a):
    return f"ring: {a.ring.describe()}\nA: {json.dumps(a.to_rows())}\n"


class TestDecomposeStream:
    """decompose reads a stream of matrix documents and writes one
    certificate per document, in order, each before the next is read."""

    @pytest.mark.parametrize("k", (1, 2, 7))
    def test_k_documents_give_k_certificates(self, capsys, monkeypatch, rng, k):
        rings = (zm_ring(6), zm_ring(72), MatrixRing(6, 2), zm_ring(3))
        mats = [RingMatrix.random(1 + i % 4, rings[i % len(rings)], rng) for i in range(k)]
        text = "\n".join(_matrix_document(a) for a in mats)
        code, out, err = run(capsys, monkeypatch, ["decompose"], text)
        assert code == EXIT_OK, err
        # each certificate is the one decompose gives its matrix alone
        assert out == "\n".join(certificate_to_doc(decompose(a)) for a in mats)
        code, verdicts, _ = run(capsys, monkeypatch, ["verify"], out)
        assert code == EXIT_OK
        assert verdicts == "".join(f"certificate {i}: ok\n" for i in range(k))

    def test_single_document_unchanged(self, capsys, monkeypatch):
        a = RingMatrix.from_rows([[1, 2], [3, 4]], zm_ring(6))
        for sep in SEPARATORS:
            code, out, _ = run(capsys, monkeypatch, ["decompose"], sep + _matrix_document(a) + sep)
            assert code == EXIT_OK and out == certificate_to_doc(decompose(a))

    def test_plain_format_stream(self, capsys, monkeypatch):
        mats = [RingMatrix.identity(2, zm_ring(6)), RingMatrix.zeros(3, zm_ring(4))]
        code, out, _ = run(capsys, monkeypatch, ["decompose", "--format", "plain"],
                           "\n\n".join(_matrix_document(a) for a in mats))
        assert code == EXIT_OK
        assert out == "\n".join(certificate_to_doc(decompose(a)).split("\n", 2)[2] for a in mats)

    def test_plain_rows_with_blank_lines_are_one_matrix(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], "\n1 2\n\n3 4\n\n")
        assert code == EXIT_OK
        assert out == certificate_to_doc(decompose(RingMatrix.from_rows([[1, 2], [3, 4]], zm_ring(6))))

    def test_bad_document_stops_the_stream_in_order(self, capsys, monkeypatch):
        a = RingMatrix.from_rows([[1, 2], [3, 4]], zm_ring(6))
        text = "\n".join([_matrix_document(a), _matrix_document(a), "ring: Z6\n", _matrix_document(a)])
        code, out, err = run(capsys, monkeypatch, ["decompose"], text)
        assert code == EXIT_PARSE and "lacks field 'A'" in err
        assert out == "\n".join([certificate_to_doc(decompose(a))] * 2)
        code, out, err = run(capsys, monkeypatch, ["decompose"], "ring: Z5\nA: [[1]]\n\n" + text)
        assert code == EXIT_UNSUPPORTED and out == ""

    def test_peak_memory_flat_in_the_number_of_documents(self, monkeypatch, tmp_path):
        # a 2 KB comment per document: keeping the input text, or a
        # certificate per document, would grow the peak by 1 MB or more
        doc = "ring: Z6\n# " + "x" * 2000 + "\nA: [[1, 2], [3, 4]]\n"

        def peak(count):
            path = tmp_path / f"stream-{count}.txt"
            path.write_text("\n".join([doc] * count))
            with open(os.devnull, "w") as sink:
                monkeypatch.setattr("sys.stdout", sink)
                tracemalloc.start()
                try:
                    assert main(["decompose", "--input", str(path)]) == EXIT_OK
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(10)  # the caches a first call fills
        small, large = peak(100), peak(1_100)
        assert large - small <= 512 * 1024, (small, large)


class TestCommentsAndByteOrderMark:
    """'#' comment lines are skipped wherever they stand: before the line
    that decides the input format, in plain rows, and as whole blocks of a
    stream.  One byte-order mark at the start of the input is dropped."""

    A = RingMatrix.from_rows([[1, 2], [3, 4]], zm_ring(6))

    def test_comment_before_a_matrix_document(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["decompose"], "# a note\n" + _matrix_document(self.A))
        assert code == EXIT_OK, err
        assert out == certificate_to_doc(decompose(self.A))

    def test_comment_in_plain_rows(self, capsys, monkeypatch):
        for text in ("# note\n1 2\n3 4\n", "1 2\n  # note: 5 5\n3 4\n# end\n", "\n# a\n\n# b\n1 2\n3 4"):
            code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], text)
            assert code == EXIT_OK, (text, err)
            assert out == certificate_to_doc(decompose(self.A))

    def test_comment_block_in_a_decompose_stream(self, capsys, monkeypatch):
        b = RingMatrix.from_rows([[1]], zm_ring(6))
        for text in (_matrix_document(b) + "\n# trailing comment\n",
                     "# lead\n\n" + _matrix_document(b) + "\n# between\n# two lines\n\n"
                     + _matrix_document(self.A) + "\n  # last\n"):
            code, out, err = run(capsys, monkeypatch, ["decompose"], text)
            assert code == EXIT_OK, err
            mats = [b] if text.count("A:") == 1 else [b, self.A]
            assert out == "\n".join(certificate_to_doc(decompose(a)) for a in mats)

    def test_comment_block_in_a_verify_stream(self, capsys, monkeypatch):
        cert = certificate_to_doc(decompose(self.A))
        text = cert + "\n# between\n\n" + cert + "\n# trailing\n"
        code, out, err = run(capsys, monkeypatch, ["verify"], text)
        assert code == EXIT_OK, err
        assert out == "certificate 0: ok\ncertificate 1: ok\n"

    def test_comments_alone(self, capsys, monkeypatch):
        text = "# only\n\n  # comments\n# here\n"
        assert documents(text) == []
        code, out, err = run(capsys, monkeypatch, ["verify"], text)
        assert code == EXIT_PARSE and out == "" and "no certificate documents in input" in err
        code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", "6"], text)
        assert code == EXIT_PARSE and out == "" and "empty matrix input" in err
        assert parse_document("") == {} and parse_document("# a comment\n") == {}

    def test_field_after_a_line_break_inside_a_comment_line(self):
        # the stream splits lines at \n alone, parse_document at \r too
        assert documents("# note\rA: [[1]]\n") == [{"A": [[1]]}]

    @pytest.mark.parametrize("from_file", (False, True))
    def test_byte_order_mark(self, capsys, monkeypatch, tmp_path, from_file):
        def command(args, text):
            if not from_file:
                return run(capsys, monkeypatch, args, text)
            path = tmp_path / "input.txt"
            path.write_bytes(text.encode())
            return run(capsys, monkeypatch, args + ["--input", str(path)])

        b = RingMatrix.from_rows([[1]], zm_ring(6))
        code, out, err = command(["decompose"], "\ufeffring: Z6\nA: [[1]]\n")
        assert code == EXIT_OK, err
        assert out == certificate_to_doc(decompose(b))
        code, verdicts, err = command(["verify"], "\ufeff" + out)
        assert code == EXIT_OK and verdicts == "certificate 0: ok\n", err
        code, out, err = command(["decompose", "--modulus", "6"], "\ufeff1 2\n3 4\n")
        assert code == EXIT_OK and out == certificate_to_doc(decompose(self.A)), err
        # one mark only: a second one is part of the key
        code, out, err = command(["decompose"], "\ufeff\ufeffring: Z6\nA: [[1]]\n")
        assert code == EXIT_PARSE and "no ring given" in err


class TestRepeatedKey:
    """A document that gives a key twice is refused, naming the key and its
    line, where a dict would keep the last value."""

    def test_parse_document(self):
        with pytest.raises(InputError, match="line 3 repeats key 'A'"):
            parse_document("A: [[1, 2], [3, 4]]\n# comment\nA: [[0, 0], [0, 0]]\n")

    def test_decompose(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["decompose", "--modulus", "6"],
                             "A: [[1, 2], [3, 4]]\nA: [[0, 0], [0, 0]]\n")
        assert code == EXIT_PARSE and out == ""
        assert "line 2 repeats key 'A'" in err and "Traceback" not in err

    def test_verify(self, capsys, monkeypatch):
        cert = certificate_to_doc(decompose(RingMatrix.from_rows([[1, 2], [3, 4]], zm_ring(6))))
        bogus = cert.replace("\nW: ", "\nW: [[0, 0], [0, 0]]\nW: ", 1)
        code, out, err = run(capsys, monkeypatch, ["verify"], cert + "\n" + bogus)
        assert code == EXIT_PARSE and out == "certificate 0: ok\n"
        assert "line 11 repeats key 'W'" in err


def _tampered(cert, kind):
    """The certificate with one field changed: a claimed exponent k + 1,
    k - 1, 1 or the ring's bound; one entry of E, F or A moved by 1; or W
    replaced by the identity, with A moved to keep the sum, so that the
    check of the exponent sees a W that is not nilpotent."""
    a, e, f, w = (RingMatrix(x.ring, x.coeffs.copy()) for x in (cert.a, cert.e, cert.f, cert.w))
    k, ring = cert.nilpotency_exponent, cert.a.ring
    claims = {"k+1": k + 1, "k-1": k - 1, "k=1": 1, "k=bound": ring.nilpotency_bound(a.n)}
    if kind in claims:
        k = claims[kind]
    elif kind == "W=I":
        w = RingMatrix.identity(a.n, ring)
        a = e + f + w
    else:
        target = {"E": e, "F": f, "A": a}[kind].coeffs
        target[-1, 0, -1] = (target[-1, 0, -1] + 1) % ring.m
    return DecompositionCertificate(a, e, f, w, k)


TAMPERS = ("k+1", "k-1", "k=1", "k=bound", "E", "F", "A", "W=I")
VERDICT_RINGS = (zm_ring(2), zm_ring(3), zm_ring(72), MatrixRing(6, 3), MatrixRing(72, 2))


def _verdict_stream():
    """Two decompose certificates per ring and n = 1..8, each followed by a
    tampered copy, the tampering taken in turn from TAMPERS."""
    gen = np.random.default_rng(2022)
    docs = []
    for ring in VERDICT_RINGS:
        for n in range(1, 9):
            for _ in range(2):
                cert = decompose(RingMatrix.random(n, ring, gen))
                docs.append(certificate_to_doc(cert))
                docs.append(certificate_to_doc(_tampered(cert, TAMPERS[len(docs) // 2 % len(TAMPERS)])))
    return "\n".join(docs)


class TestPinnedVerdicts:
    """verify's stdout and exit code on a fixed stream, pinned by SHA-256.
    TestVerifyStream compares verify against verify_certificate itself, so
    only a pin catches a change in the verdicts of the check.  The stream
    is made by decompose, so it was re-pinned when the trace family halved
    W's index: a "k=bound" copy no longer states the exact exponent of a
    cyclic matrix over Z2 or Z3, so three of them now fail, and one moved
    entry of F now breaks F's idempotency before the sum.  verify before and
    after that change gives the same stdout on the old and new streams."""

    def test_verdict_digest(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify"], _verdict_stream())
        assert code == EXIT_VERIFY
        assert out.count(": ok\n") == 82 and out.count("FAILED check:") == 78
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "a737964ea700252b6e6623ef172d98393efa4e4af1ed488c08c1c51f6dbba9ce"

    def test_verify_never_searches_for_the_exponent(self, capsys, monkeypatch):
        # every document states its exponent, so verify proves it: the search
        # that decompose's self-check runs is never entered
        text = _verdict_stream()
        searches = []
        monkeypatch.setattr("nilclean.matrix._min_exponent", lambda *args: searches.append(args))
        code, _, _ = run(capsys, monkeypatch, ["verify"], text)
        assert code == EXIT_VERIFY and searches == []


class TestParserReuse:
    """The parser is built once per process; a call leaves nothing behind
    that changes the next."""

    SEQUENCES = {
        # decompose prints the same document for a triangular matrix with or
        # without --triangular; on this one, a leaked flag would exit 2
        "triangular-then-plain": ((["decompose", "--triangular", "--modulus", "6"], "5 1\n0 2\n"),
                                  (["decompose", "--modulus", "6"], "5 1\n1 2\n")),
        "plain-format-then-default": ((["decompose", "--format", "plain", "--modulus", "3"], "0 1\n1 0\n"),
                                      (["decompose", "--modulus", "3"], "0 1\n1 0\n")),
        "argparse-error-then-valid": ((["decompose", "--modulus", "x"], "1\n"),
                                      (["decompose", "--modulus", "6"], "4\n")),
    }

    @staticmethod
    def call(capsys, monkeypatch, args, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(args)
        except SystemExit as exit_info:
            code = exit_info.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("first,second", SEQUENCES.values(), ids=SEQUENCES.keys())
    def test_second_call_as_if_fresh(self, capsys, monkeypatch, first, second):
        cli.build_parser.cache_clear()
        fresh = self.call(capsys, monkeypatch, *second)
        cli.build_parser.cache_clear()
        self.call(capsys, monkeypatch, *first)
        parser = cli.build_parser()
        assert self.call(capsys, monkeypatch, *second) == fresh
        assert cli.build_parser() is parser

    def test_first_calls_differ(self, capsys, monkeypatch):
        for first, second in self.SEQUENCES.values():
            assert self.call(capsys, monkeypatch, *first) != self.call(capsys, monkeypatch, *second)


class TestDemoObstruction:
    def test_table_values(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["demo-obstruction", "4"])
        assert code == EXIT_OK
        doc = parse_document(out)
        rows = doc["rows"]
        assert [(r[0], r[3], r[5]) for r in rows] == [(2, 1, 2), (3, 1, 3), (4, 1, 4)]

    def test_plain_table(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["demo-obstruction", "3", "--format", "plain"])
        assert code == EXIT_OK
        assert out == (
            "chain  ring                 2*1 element        min-exp  3*1 element        min-exp\n"
            "2      Z2xZ4                (0, 2)             1        (1, 3)             2\n"
            "3      Z2xZ4xZ8             (0, 2, 2)          1        (1, 3, 3)          3\n"
            "the doubled identity always splits as 1 + 1 + 0; the tripled identity\n"
            "forces w = 2 in every Z_{2^i} factor, so its index grows with the chain\n")

    def test_out_of_range(self, capsys, monkeypatch):
        for bad in ("1", "6"):
            code, _, _ = run(capsys, monkeypatch, ["demo-obstruction", bad])
            assert code == EXIT_PARSE
