"""Smoke runs of the scripts, so their code paths stay in the suite."""

import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_randomized_stress_up_to_n64():
    # rcf, is_invertible, inverse and conjugation invariance at n <= 64
    assert load("randomized_stress").main(["--seed", "1", "--count", "30", "--max-dim", "64"]) == 0
