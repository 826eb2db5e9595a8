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
    # decompositions at n <= 64 of uniform matrices and of derogatory
    # conjugates, whose Krylov forms scan many chains through the echelon's
    # one-gather reduction at n >= 32 (up to 46 chains with this seed);
    # truncated rings over 3^19 at n >= 7 put the split under d > 1,
    # over 2^17 3^8 run unsplit int64 products past 2^53, and over 72 at
    # n >= 32 run truncated products on float64 BLAS
    assert load("randomized_stress").main(["--seed", "1", "--count", "30", "--max-dim", "64"]) == 0


def test_exhaustive_verification_small_sweep(capsys):
    module = load("exhaustive_verification")
    config = module.SweepConfig(field_shapes=((2, 2), (2, 3)), composite_shapes=((2, 4), (2, 6)),
                                max_modulus=36, chain_max=3, matrix_rings=((2, 2), (2, 5), (2, 6)))
    module.run_sweeps(config.field_shapes)
    module.run_sweeps(config.composite_shapes)
    module.run_oracle_survey(config)
    module.run_growth_demo(config)
    out = capsys.readouterr().out
    assert "M_2(Z_3): 81 certificates" in out and "M_2(Z_6): 1296 certificates" in out
    # the certificate-exponent histograms of TestIndexAgainstOracle's M2(Z2) and M2(Z3)
    assert "M_2(Z_2): 16 certificates, max W-exponent 2, exponents {1: 8, 2: 8}, " in out
    assert "M_2(Z_3): 81 certificates, max W-exponent 2, exponents {1: 27, 2: 54}, " in out
    assert "agrees with 2-3-smoothness" in out
    assert "tripotent Z_m: m in [2, 3, 6]" in out
    assert "k=2: 2" in out and "k=3: 3" in out


def test_oracle_survey_flags_a_wrong_verdict(capsys, monkeypatch):
    module = load("exhaustive_verification")
    config = module.SweepConfig(max_modulus=12, matrix_rings=((2, 2), (2, 6)))
    assert module.run_oracle_survey(config) == []
    real = module.decide

    def flipped(name, ring):
        report = real(name, ring)
        if name == "nil-clean":
            report.holds = not report.holds
        return report

    monkeypatch.setattr(module, "decide", flipped)
    assert module.run_oracle_survey(config) == ["nil-clean(Z2)", "nil-clean(M2(Z2))"]
    assert "DISAGREES at ['nil-clean(Z2)', 'nil-clean(M2(Z2))']" in capsys.readouterr().out


def test_oracle_survey_at_its_defaults(capsys):
    # Z_m for m <= 200, M2(Z2..Z9), M3(Z2) and M3(Z3), every report replayed
    module = load("exhaustive_verification")
    assert module.run_oracle_survey(module.SweepConfig()) == []
    assert "every verdict agrees" in capsys.readouterr().out
