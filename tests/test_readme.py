"""The README documents the names the code uses."""

from pathlib import Path

from fuvalkit.bench import SENSITIVITY_HEADER, TRACE_HEADER
from fuvalkit.optimizers import ScalingScheme

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_names_every_scaling_scheme():
    for scheme in ScalingScheme:
        assert f"`{scheme.value}`" in README, scheme


def test_readme_lists_the_csv_columns():
    assert f"`{','.join(TRACE_HEADER)}`" in README
    assert f"`{','.join(SENSITIVITY_HEADER)}`" in README
