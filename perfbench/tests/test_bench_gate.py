"""The benchmark's correctness gate must catch wrong outputs.

Run with:  python3 -m pytest perfbench/tests
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import arith  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from nilclean import cli  # noqa: E402
from nilclean.matrix import RingMatrix, zm_ring  # noqa: E402


def _doc_for(rows, m):
    return cli.certificate_to_doc(cli.decompose(RingMatrix.from_rows(rows, zm_ring(m))))


def _replace_line(doc, key, value):
    return "".join(f"{key}: {value}\n" if line.startswith(f"{key}: ") else line + "\n"
                   for line in doc.splitlines())


def test_program_certificate_passes_the_gate():
    rows = [[1, 2, 0], [0, 1, 1], [2, 2, 2]]
    docs = arith.parse_documents(_doc_for(rows, 3))
    assert workloads._check_certificate_doc(docs, rows) is None


@pytest.mark.parametrize("key, value, expected", [
    ("E", "[[1, 0, 0], [0, 1, 0], [0, 0, 2]]", "E idempotency"),
    ("F", "[[2, 0, 0], [0, 0, 0], [0, 0, 0]]", "F idempotency"),
    ("W", "[[1, 1, 1], [1, 1, 1], [1, 1, 1]]", "sum"),
])
def test_gate_flags_a_mutated_certificate(key, value, expected):
    rows = [[1, 2, 0], [0, 1, 1], [2, 2, 2]]
    doc = _replace_line(_doc_for(rows, 3), key, value)
    problem = workloads._check_certificate_doc(arith.parse_documents(doc), rows)
    assert problem and expected in problem


def test_gate_flags_a_wrong_nilpotency_exponent_and_input():
    rows = [[0, 1], [0, 0]]
    doc = _doc_for(rows, 2)
    k = arith.parse_documents(doc)[0]["nilpotency-exponent"]
    bad = _replace_line(doc, "nilpotency-exponent", str(k + 1))
    assert "nilpotency" in workloads._check_certificate_doc(arith.parse_documents(bad), rows)
    assert workloads._check_certificate_doc(arith.parse_documents(doc), [[1, 1], [0, 0]])


def test_first_failure_order_and_minimal_exponent():
    m = 4
    zero = np.zeros((1, 2, 2), dtype=np.int64)
    w = np.array([[[0, 1], [0, 0]]])
    a = w.copy()
    assert arith.first_failure(a, zero, zero, w, 2, m) is None
    assert arith.first_failure(a, zero, zero, w, 3, m) == arith.CHECK_NIL
    assert arith.first_failure(a, zero, zero, w, 1, m) == arith.CHECK_NIL
    assert arith.first_failure(a + 1, zero, zero, w, 2, m) == arith.CHECK_SUM
    assert arith.nil_exponent(2 * np.eye(2, dtype=np.int64)[None], 8, 6) == 3


def test_stream_labels_match_program_verdicts():
    stream = gen.verify_stream(7)[:64]
    labels = {label for _, _, label in stream}
    assert gen.LABEL_OK in labels and len(labels) > 2
    item_docs = "\n".join(doc for _, doc, _ in stream)
    verdicts = []
    for doc in arith.parse_documents(item_docs):
        cert = cli.certificate_from_doc(doc)
        verdicts.append("ok" if cli.verify_certificate(cert) else f"FAILED check: {cert.failure}")
    assert verdicts == [label for _, _, label in stream]


def test_verify_gate_flags_a_flipped_verdict(tmp_path):
    stream = gen.verify_stream(3)[:8]
    work = workloads.VerifyStream(3, str(tmp_path))
    path = tmp_path / "batch.txt"
    path.write_text("\n".join(doc for _, doc, _ in stream))
    item = (str(path), [r for r, _, _ in stream], [label for _, _, label in stream])
    status, text = work.op(item)
    assert work.gate([item], [(status, text)]) == (0, [])
    lines = text.splitlines()
    lines[0] = "certificate 0: " + ("FAILED check: sum" if "ok" in lines[0] else "ok")
    failed, notes = work.gate([item], [(status, "\n".join(lines))])
    assert failed == 1 and notes


def test_zm_gate_flags_a_wrong_certificate(tmp_path):
    work = workloads.ZmScaling(5, str(tmp_path))
    a = gen.zm_matrix(8, 72, "derogatory", np.random.default_rng(5))
    item = (8, 72, "derogatory", a, RingMatrix.from_rows(arith.to_rows(a), zm_ring(72)))
    cert = work.op(item)
    assert work.gate([item], [cert]) == (0, [])
    cert.w = cert.w + RingMatrix.identity(8, zm_ring(72))
    failed, notes = work.gate([item], [cert])
    assert failed == 1 and "sum" in notes[0]


def test_survey_theory_and_flipped_verdicts():
    for m in range(2, 60):
        assert workloads.expected_holds(f"Z{m}", "two-nil-clean") == all(
            p in (2, 3) for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p)))
    cmd = ["classify", "M2(Z6)", "two-nil-clean,strongly-two-nil-clean"]
    status, text = workloads.OracleSurvey(1, ".").op(cmd)
    assert workloads.check_survey_output(cmd, status, text) is None
    flipped = text.replace("holds: true", "holds: false", 1)
    assert "theory" in workloads.check_survey_output(cmd, status, flipped)
    cmd = ["classify", "Z5", "two-nil-clean"]
    status, text = workloads.OracleSurvey(1, ".").op(cmd)
    assert workloads.check_survey_output(cmd, status, text) is None
    assert workloads.check_survey_output(cmd, status, text.replace("holds: false", "holds: true"))


def test_survey_replay_rejects_a_forged_witness():
    cmd = ["classify", "Z6", "two-nil-clean"]
    status, text = workloads.OracleSurvey(1, ".").op(cmd)
    doc = arith.parse_documents(text)[0]
    assert workloads.replay_report(doc)
    doc["witness-parts"] = [[2], [0], [0]]
    assert not workloads.replay_report(doc)


def test_obstruction_table_check():
    cmd = ["demo-obstruction", "4"]
    status, text = workloads.OracleSurvey(1, ".").op(cmd)
    assert workloads.check_survey_output(cmd, status, text) is None
    assert workloads.check_survey_output(cmd, status, text.replace(", 4]]", ", 3]]"))
