"""README's examples run as written: the library example, the
``decompose | verify`` stream line of the command-line examples, and the
sweep and growth lines of "Reproducing the results"."""

import json
import os
import pathlib
import re
import subprocess
import sys

import nilclean

ROOT = pathlib.Path(__file__).parent.parent
README = (ROOT / "README.md").read_text()


def test_library_example():
    block = re.search(r"^## Library\n+```python\n(.*?)^```", README, re.M | re.S).group(1)
    imported = re.search(r"^from nilclean import (.*)$", block, re.M).group(1)
    assert {name.strip() for name in imported.split(",")} <= set(nilclean.__all__)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    cert = scope["cert"]
    assert cert.verified and cert.e + cert.f + cert.w == scope["a"]


def run(pattern):
    """Run README's one command line that matches pattern through this
    Python; return the line and its finished process, checked to exit 0."""
    line = re.search(pattern, README, re.M).group(0)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    command = line.replace("nilclean ", f"'{sys.executable}' -m nilclean.cli ")
    proc = subprocess.run(["sh", "-c", command], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return line, proc


def test_decompose_verify_stream_example():
    line, proc = run(r"^printf '[^']*' \| nilclean decompose \| nilclean verify$")
    documents = line.count("A: ")
    assert documents >= 2
    assert proc.stdout == "".join(f"certificate {i}: ok\n" for i in range(documents))


def test_exhaustive_sweep_verify_line():
    _, proc = run(r"^nilclean decompose --exhaustive 2 3 \| nilclean verify$")
    assert proc.stdout == "".join(f"certificate {i}: ok\n" for i in range(3**4))


def test_demo_obstruction_line():
    # the tripled identity's least W-exponent is the chain length k
    _, proc = run(r"^nilclean demo-obstruction 4$")
    rows = json.loads(re.search(r"^rows: (.*)$", proc.stdout, re.M).group(1))
    assert rows == [[k, "x".join(f"Z{2**i}" for i in range(1, k + 1)), [0] + [2] * (k - 1), 1,
                     [1] + [3] * (k - 1), k] for k in (2, 3, 4)]
