"""The README documents the names the code uses."""

import inspect
import re
from pathlib import Path

from fuvalkit.bench import SENSITIVITY_HEADER, TRACE_HEADER
from fuvalkit.optimizers import ScalingScheme
from fuvalkit.problems import Problem

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
ACCEPTANCE = (ROOT / "tests" / "test_acceptance.py").read_text()


def test_readme_names_every_scaling_scheme():
    for scheme in ScalingScheme:
        assert f"`{scheme.value}`" in README, scheme


def test_readme_lists_the_csv_columns():
    assert f"`{','.join(TRACE_HEADER)}`" in README
    assert f"`{','.join(SENSITIVITY_HEADER)}`" in README


def test_readme_names_every_problem_keyword():
    section = README.split("\n## Data representation\n", 1)[1].split("\n## ", 1)[0]
    for name in inspect.signature(Problem).parameters:
        assert f"{name}=" in section, name


def test_readme_lists_every_acceptance_criterion():
    numbers = [str(int(num)) for num in re.findall(r"^def test_(\d\d)_", ACCEPTANCE, re.M)]
    section = README.split("\n## Tests\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"acceptance gate: (\d+) criteria", section) == [str(len(numbers))]
    assert re.findall(r"^(\d+)\. ", section, re.M) == numbers
