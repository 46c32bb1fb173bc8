"""Layout rules for the package source."""

import ctypes
import dataclasses
import re
from pathlib import Path

from margin_spectra import optim
from margin_spectra.learner import LearningCurve

SRC = Path(__file__).resolve().parents[1] / "src" / "margin_spectra"


def calls_outside(home: str, pattern: str) -> list[str]:
    """Source lines matching `pattern` in package modules other than `home`."""
    return [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != home
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_gram_eigen_solves_only_in_optim():
    """Every Gram eigen-solve or Cholesky factorization goes through optim."""
    assert calls_outside("optim.py", r"eigh\(|eigvalsh\(|cholesky\(|potrf\(") == []


def test_lapack_calls_release_the_lock():
    """No module calls scipy's f2py LAPACK wrappers, which hold the interpreter
    lock for the whole call (tests/oracles.py keeps them as the oracle); optim
    calls dpotrf and dpotrs as C functions, which ctypes calls without it."""
    assert calls_outside("", r"scipy\.linalg\.lapack|from scipy\.linalg import .*\blapack\b|"
                             r"\blapack\.\w+\(|get_lapack_funcs") == []
    for routine in (optim._potrf, optim._potrs):
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_svd_only_in_spectral():
    """Every singular value decomposition goes through spectral.projection_tails."""
    assert calls_outside("spectral.py", r"svd\(") == []


def test_least_squares_only_in_optim():
    """Every NNLS or least-squares solve goes through optim, and the constraint
    wrapper and KKT report it once returned are gone."""
    assert calls_outside("optim.py", r"nnls\(|lstsq\(") == []
    assert calls_outside("", r"ConstraintSystem|KktReport|kkt_check|kkt_residual") == []


def test_philox_only_in_dist():
    """Every random point comes from the one counter-based sampler in dist."""
    assert calls_outside("dist.py", r"Philox\(") == []


def test_trial_maps_only_in_randmat():
    """Every parallel trial map goes through randmat.map_trials."""
    assert calls_outside("randmat.py", r"Executor\(|Pool\(|multiprocessing") == []


def test_cli_reads_and_writes_no_csv():
    """Each file format is read and written in its own module, not in the CLI."""
    source = (SRC / "cli.py").read_text().splitlines()
    assert [line for line in source
            if re.search(r"^\s*(import|from)\s+csv\b|csv\.(reader|writer|Dict\w+)\(", line)] == []


def test_argument_rules_only_in_checks():
    """Every finiteness test and every margin, count, probability and seed rule
    is defined in checks; the copies other modules kept, and SampleMatrix, are gone."""
    rules = r"def (check_positive|check_unit|check_int|finite_points)\b|SEED_LIMIT ="
    assert len(re.findall(rules, (SRC / "checks.py").read_text())) == 5
    assert calls_outside("checks.py", rules) == []
    assert calls_outside("checks.py", r"isfinite\(") == []
    assert calls_outside("", r"_positive_finite|_positive_int|_positive_number|"
                             r"def check_gamma|SampleMatrix") == []


def test_learning_curve_rules_only_in_learner():
    """The CLI checks m_grid and the learner through learner.curve_grid and keeps
    no copy of the learner kinds, the exact cap or their checks."""
    source = (SRC / "cli.py").read_text()
    assert [name for name in ("EXACT_CAP", "LEARNER_KINDS", "_check_m_grid", "_check_learner")
            if name in source] == []


def test_draw_order_only_in_dist():
    """The sampler's draw order is written once, as dist.LAW_KINDS: learner
    names no law kind by string and ranks no kinds of its own."""
    source = (SRC / "learner.py").read_text()
    kinds = r"gaussian|rademacher|uniform_symmetric|gaussian_mixture_symmetric"
    assert re.findall(rf"""["']({kinds})["']""", source) == []
    assert re.findall(r"\b(LAW_KINDS|GAUSSIAN|RADEMACHER|UNIFORM_SYMMETRIC)\b", source) == []


def test_learning_curve_holds_what_its_csv_holds():
    """A LearningCurve has the fields write_curve_csv writes and no L* or spec
    digest: a caller that scores a curve estimates L* itself."""
    assert [f.name for f in dataclasses.fields(LearningCurve)] == \
        ["gamma", "entries", "learner_kind", "seed"]
