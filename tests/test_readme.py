"""README's examples run as written: the library example and the
``decompose | verify`` stream line of the command-line examples."""

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


def test_decompose_verify_stream_example():
    line = re.search(r"^printf '[^']*' \| nilclean decompose \| nilclean verify$", README, re.M).group(0)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    command = line.replace("nilclean ", f"'{sys.executable}' -m nilclean.cli ")
    proc = subprocess.run(["sh", "-c", command], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    documents = line.count("A: ")
    assert documents >= 2
    assert proc.stdout == "".join(f"certificate {i}: ok\n" for i in range(documents))
