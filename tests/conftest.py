from pathlib import Path

import numpy as np
import pytest

from knnsweep import ColumnKind, Dataset

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_dataset(features, target=None, kinds=None, names=None) -> Dataset:
    """Build a Dataset from plain arrays; 1-D features become one column."""
    f = np.asarray(features, dtype=float)
    if f.ndim == 1:
        f = f.reshape(-1, 1)
    n, d = f.shape
    if target is None:
        target = np.zeros(n)
    if kinds is None:
        kinds = (ColumnKind.NUMERIC,) * d
    if names is None:
        names = tuple(f"c{j}" for j in range(d))
    return Dataset(
        features=f,
        target=np.asarray(target, dtype=float),
        column_kinds=tuple(kinds),
        column_names=tuple(names),
    )


@pytest.fixture
def sample_csv() -> Path:
    return REPO_ROOT / "data" / "synthetic.csv"
