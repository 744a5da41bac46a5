"""Regenerate data/synthetic.csv.

200 rows, 3 numeric features uniform on [0, 10), target linear in the
features plus gaussian noise. The seed is fixed; the committed CSV is the
canonical copy, and CI checks that this script rewrites it byte for byte:

    PYTHONPATH=src python scripts/make_synthetic_sample.py && git diff --exit-code data/synthetic.csv
"""

from pathlib import Path

import numpy as np

from knnsweep import ColumnKind, Dataset, write_csv

SEED = 7
N_ROWS = 200


def main() -> None:
    rng = np.random.Generator(np.random.PCG64(SEED))
    x = rng.uniform(0.0, 10.0, size=(N_ROWS, 3))
    noise = rng.normal(0.0, 0.5, size=N_ROWS)
    y = 2.0 * x[:, 0] - 3.0 * x[:, 1] + 0.5 * x[:, 2] + noise
    data = Dataset(
        features=x,
        target=y,
        column_kinds=(ColumnKind.NUMERIC,) * 3,
        column_names=("x1", "x2", "x3"),
    )
    out = Path(__file__).resolve().parent.parent / "data" / "synthetic.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(data, out, target_name="y")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
