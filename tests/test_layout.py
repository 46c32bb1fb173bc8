"""Layout rules for the package source."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "margin_spectra"


def test_gram_eigen_solves_only_in_optim():
    """Every Gram eigen-solve goes through optim.gram_eig / gram_lambda_min."""
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "optim.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"eigh\(|eigvalsh\(", line)]
    assert hits == []
