import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))  # the stress recipe of snapshot_outputs

from reluflow.dataset import Dataset
from reluflow.scenarios import fixture_dataset


@pytest.fixture(scope="session")
def ds_showcase() -> Dataset:
    """d=2, n=5 dataset of the initialization-norm showcase."""
    return fixture_dataset("example-5-1")


@pytest.fixture(scope="session")
def ds_deactivation() -> Dataset:
    """n=d=3 dataset where the flow sheds its first datum for good."""
    return fixture_dataset("example-5-2")


@pytest.fixture(scope="session")
def ds_reactivation() -> Dataset:
    """d=3, n=4 dataset where a shed datum comes back."""
    return fixture_dataset("example-5-3")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
