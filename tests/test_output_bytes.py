"""Every CLI output byte on the bundled sample, pinned by sha256.

A change to any output byte (an SVG attribute, a number format, a file
header) fails here; a digest changes only with a deliberate format change.
The query and density inputs are cut from data/synthetic.csv the way the
CI smoke step cuts them: the first three columns of every line, and the
header plus the first 20 rows of that. The hamming inputs label each of
x1-x3 by its quarter of [0, 10), "abcd"[min(3, int(x // 2.5))], and keep y;
their query file is the header plus the first 20 rows' labels.
"""

import hashlib

import pytest

from knnsweep import cli

from conftest import REPO_ROOT

SAMPLE = REPO_ROOT / "data" / "synthetic.csv"

SWEEP_DEFAULT = {
    "table.csv": "8e7bf974aca81310fe6410d018dc7d5105264a8f567ec3745852b8997436dd97",
    "rmse.svg": "08e8d8ff6cbe9a838ebaeb4230c1a36458c4109a9e403e6394d4013c2d21a22f",
    "r2.svg": "f4f9e26025a6b06f8a3f85c348bd357ff5a0bd2cbdddbaf06d993994c62e636d",
    "stdout": "c6b8dab19aafbf537956afff8ce4da6b878ebd42fac787aa09f834705cac8f2c",
}
SWEEP_INVERSE_BRUTE = {
    "table.csv": "5ca520af99d8a0f0b7d972dc98972ed1d9b49d2b08d62d3dff617e6ef0928592",
    "rmse.svg": "b0461ecbd3344a1565543ef91b4f7effcbe640f124e08b701c1dfb7de54438f6",
    "r2.svg": "2ff256d5f95ad0a99bb2d4bf6e06fc811a4dd22ed3a03e5a3fd88c5ce60a2b14",
    "stdout": "40f67fc8ddf8d4dbd6b2ebe8a29513744d4305fb83cda588b4932173ca4b7cd3",
}
# raw coordinates: the euclidean filter's column means are far from 0
SWEEP_RAW_BRUTE = {
    "table.csv": "6e16fc600ec70e0059f6ba68bd3cd03b40d783b7a82c2c93b131f933702a8f50",
    "rmse.svg": "b98c33ab20fbb4602420cb8b3b250913f756d9c8577d6d2de25d6fef857f5b25",
    "r2.svg": "8c4c1f316e4420cec2628b7c565cae5427fe5abc5d69acb7372b7b53c3c3227f",
    "stdout": "762ad1c72896e8c4a0f733067fdc25ab5a7b03c302671a82ed0f8e6f55eb76bf",
}
# the kd-tree and the exact brute-force loop give the same bytes
SWEEP_MANHATTAN = {
    "table.csv": "fba8ca49c7ed3d0c147065a86300e5ec17e9fbceb53b0865c4ac97e0ac74bbc3",
    "rmse.svg": "8271ca171fcdb446bc921c867b13cbe82c1d65799ae4ff3cc4e55ddee36adc7a",
    "r2.svg": "e87ec5e6b297091bffe572a3be8e2461910adb4a75af5b7d96a7ce9ea0303ac6",
    "stdout": "f0ed8013e124479913bbd375c6544f0a75ee6edd594112e6185d99809a236444",
}
EVAL_K5_STDOUT = "e0806398a66839634001c10a772cbbbfa13b54f0f7d616a6ff367c957f7dd8ed"
PREDICT_K5 = "daa6c6314b80a128c5ce002486cdaab2d82dcd60013845db4741952987b4dd1b"
PREDICT_K5_RAW_BRUTE = "6f0318734bb1ba96289f6b9ff7be785b4b53a0874e5ee8e9a626ba67a8fba0f7"
# categorical labels, brute force: the exact loop ranks every hamming block
SWEEP_HAMMING = {
    "table.csv": "e44354846a68eef3ecdebb677f0725298458bd2aedc862705f7b98b355dd19e5",
    "rmse.svg": "a7eec20a0bc3e123c842fee5b7734f960c1ac247406f646b604d8617e99ca850",
    "r2.svg": "92570e518b503f98ed24ff2b7a5a33cbb936c7099e1bade96b817caed1324657",
    "stdout": "64374a7b5a3461906b760da13a311e0c467b7a26be19db19bc3c7667e389a5fe",
}
SWEEP_HAMMING_INVERSE = {
    "table.csv": "df5975e6f0812ded8eef468f72cd5608196fa68eefb8b2e50608d6fa7e002049",
    "rmse.svg": "c6086a11b21511fc441cf99e43bb2fdcc6d79f57001df53339c1ca42410036f2",
    "r2.svg": "772de6fe4ac95b85cdd410acda3ec73d30ac745e2b10906173bf7ed0668fa803",
    "stdout": "1269cb94ca8f9d3facce39858e42c9a7e094abed5da5e0ba3394e30fc2085154",
}
# inverse weighting runs the zero-distance rule, which hamming hits often
PREDICT_K5_HAMMING_INVERSE = "cc8c52b1b4c941a92962f30f415deb838362aab2e244d0b5fad513d7e2fb94bc"
HAMMING_FLAGS = ("--categorical", "x1,x2,x3", "--metric", "hamming", "--backend", "brute")
DENSITY_K5 = "c7136a85c3f1cc341c3130e28c2e6b504d12896f217a9dca0cd605b042afeb92"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def inputs(tmp_path):
    rows = SAMPLE.read_text(encoding="utf-8").splitlines()
    features = [",".join(row.split(",")[:3]) for row in rows]
    (tmp_path / "features.csv").write_text("\n".join(features) + "\n", encoding="utf-8")
    (tmp_path / "query.csv").write_text("\n".join(features[:21]) + "\n", encoding="utf-8")
    return tmp_path


@pytest.fixture
def labels(tmp_path):
    rows = SAMPLE.read_text(encoding="utf-8").splitlines()
    lines = [rows[0]]
    for row in rows[1:]:
        *xs, y = row.split(",")
        lines.append(",".join(["abcd"[min(3, int(float(x) // 2.5))] for x in xs] + [y]))
    (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    query = [line.rsplit(",", 1)[0] for line in lines[:21]]
    (tmp_path / "labels_query.csv").write_text("\n".join(query) + "\n", encoding="utf-8")
    return tmp_path


def _run(capsys, *argv) -> bytes:
    assert cli.main([str(a) for a in argv]) == 0
    return capsys.readouterr().out.encode("utf-8")


def _sweep(capsys, tmp_path, data, *flags) -> dict:
    stdout = _run(capsys, "sweep", "--data", data, "--target", "y", *flags,
                  "--out-table", tmp_path / "table.csv",
                  "--plot-rmse", tmp_path / "rmse.svg", "--plot-r2", tmp_path / "r2.svg")
    got = {name: _sha((tmp_path / name).read_bytes())
           for name in ("table.csv", "rmse.svg", "r2.svg")}
    got["stdout"] = _sha(stdout)
    return got


@pytest.mark.parametrize("flags, expected", [
    ((), SWEEP_DEFAULT),
    (("--weighting", "inverse", "--backend", "brute"), SWEEP_INVERSE_BRUTE),
    (("--no-standardize", "--backend", "brute"), SWEEP_RAW_BRUTE),
    (("--metric", "manhattan"), SWEEP_MANHATTAN),
    (("--metric", "manhattan", "--backend", "brute"), SWEEP_MANHATTAN),
], ids=["default", "inverse-brute", "raw-brute", "manhattan", "manhattan-brute"])
def test_sweep_table_charts_and_stdout(capsys, tmp_path, flags, expected):
    assert _sweep(capsys, tmp_path, SAMPLE, *flags) == expected


@pytest.mark.parametrize("weighting, expected", [
    ("uniform", SWEEP_HAMMING), ("inverse", SWEEP_HAMMING_INVERSE),
])
def test_hamming_sweep_table_charts_and_stdout(capsys, labels, weighting, expected):
    got = _sweep(capsys, labels, labels / "labels.csv", *HAMMING_FLAGS, "--weighting", weighting)
    assert got == expected


def test_eval_stdout(capsys):
    stdout = _run(capsys, "eval", "--data", SAMPLE, "--target", "y", "--k", "5")
    assert _sha(stdout) == EVAL_K5_STDOUT


def _predict(capsys, inputs, *flags) -> str:
    out = inputs / "pred.csv"
    _run(capsys, "predict", "--train", SAMPLE, "--query", inputs / "query.csv",
         "--target", "y", "--k", "5", *flags, "--out", out)
    return _sha(out.read_bytes())


def test_predict_file(capsys, inputs):
    assert _predict(capsys, inputs) == PREDICT_K5


def test_predict_file_raw_brute(capsys, inputs):
    assert _predict(capsys, inputs, "--no-standardize", "--backend", "brute") == PREDICT_K5_RAW_BRUTE


def test_density_file(capsys, inputs):
    out = inputs / "dens.csv"
    _run(capsys, "density", "--train", inputs / "features.csv",
         "--query", inputs / "query.csv", "--k", "5", "--out", out)
    assert _sha(out.read_bytes()) == DENSITY_K5


def test_predict_file_hamming_inverse(capsys, labels):
    out = labels / "pred.csv"
    _run(capsys, "predict", "--train", labels / "labels.csv", "--query", labels / "labels_query.csv",
         "--target", "y", "--k", "5", *HAMMING_FLAGS, "--weighting", "inverse", "--out", out)
    assert _sha(out.read_bytes()) == PREDICT_K5_HAMMING_INVERSE
