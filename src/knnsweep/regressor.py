"""KNN regression and the k-neighbor local density estimate.

The regressor is a lazy learner: fit stores the training data, z-scored
on request, and builds a neighbor index, nothing else. Predictions average the k nearest targets,
either uniformly or weighted by inverse distance, with nearby points
getting more influence in the weighted mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset, SchemaError, Standardizer, apply_standardizer, fit_standardizer
from .distance import DistanceMetric
from .metrics import _sum
from .neighbors import SearchBackend, build_index


class ZeroRadiusError(ValueError):
    """The k-th neighbor distance is zero, so the density is unbounded."""


_INF_DISTANCES = "neighbor distances overflowed to inf; inverse-distance weights are undefined"


class WeightingMode(Enum):
    UNIFORM = "uniform"
    INVERSE_DISTANCE = "inverse_distance"


@dataclass(frozen=True)
class KnnModel:
    """Immutable fitted model. ``train`` is stored in model feature space:
    when a standardizer is attached, fit already applied it and predict
    applies it to every incoming query."""

    train: Dataset
    k: int
    metric: DistanceMetric
    weighting: WeightingMode
    index: object
    standardizer: Standardizer | None = None


@dataclass(frozen=True)
class DensityEstimate:
    """Probability density at a query point, units of 1/volume."""

    value: float


def fit(
    train: Dataset,
    k: int,
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN,
    weighting: WeightingMode = WeightingMode.UNIFORM,
    backend: SearchBackend = SearchBackend.KD_TREE,
    standardize: bool = False,
) -> KnnModel:
    """Store the training data and build the neighbor index; with
    ``standardize``, z-scores fitted on ``train`` alone are applied to it
    and to every query.

    k must satisfy 1 <= k <= n; out-of-range k is an error here rather
    than being clamped, to surface misconfiguration early.
    """
    if train.n_rows == 0:
        raise ValueError("cannot fit on an empty training set")
    if not 1 <= k <= train.n_rows:
        raise ValueError(f"k={k} out of range for {train.n_rows} training rows")
    standardizer = fit_standardizer(train) if standardize else None
    if standardize:
        train = apply_standardizer(standardizer, train)
    index = build_index(train, metric, backend)
    return KnnModel(
        train=train,
        k=k,
        metric=metric,
        weighting=weighting,
        index=index,
        standardizer=standardizer,
    )


def predict_from_neighbors(targets, distances, weighting: WeightingMode) -> float:
    """Combine neighbor targets into one prediction.

    uniform: arithmetic mean. inverse_distance: sum(y/d) / sum(1/d); when
    any neighbor sits at distance exactly 0, the prediction is the mean of
    the zero-distance neighbors' targets (exact-match rule). When the
    weighted mean is not finite because 1/d or a sum overflowed (subnormal
    distances), it is recomputed with weights min(d)/d, which is the same
    mean in exact arithmetic and cannot overflow through the weights.
    When every distance is inf (squared euclidean distances overflowed),
    no weight is defined and inverse weighting raises ValueError.
    """
    targets = list(targets)
    distances = list(distances)
    if weighting is WeightingMode.UNIFORM:
        return _mean(targets)
    exact = [t for t, d in zip(targets, distances) if d == 0.0]
    if exact:
        return _mean(exact)
    if min(distances) == math.inf:
        raise ValueError(_INF_DISTANCES)
    pred = _weighted_mean(targets, distances, 1.0)
    if not math.isfinite(pred):
        pred = _weighted_mean(targets, distances, min(distances))
    return pred


def _weighted_mean(targets, distances, scale: float) -> float:
    num = 0.0
    den = 0.0
    for t, d in zip(targets, distances):
        w = scale / d
        num += w * t
        den += w
    return num / den


def _mean(values) -> float:
    return _sum(values) / len(values)


def predict_prefixes(targets, distances, weighting: WeightingMode) -> np.ndarray:
    """Predictions from every prefix of many neighbor lists at once.

    ``targets`` and ``distances`` are (m, k) matrices whose rows are
    neighbor lists in (distance, index) order. Wherever it is finite,
    entry (i, j) of the result equals, bit for bit,
    ``predict_from_neighbors(targets[i, :j + 1], distances[i, :j + 1],
    weighting)``. Non-finite predictions are returned for the caller to
    reject.
    """
    targets = np.asarray(targets, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    counts = np.arange(1, targets.shape[1] + 1)
    with np.errstate(all="ignore"):
        sums = _prefix_sums(targets)
        if weighting is WeightingMode.UNIFORM:
            return sums[:, 1:] / counts
        out = _weighted_prefix_means(targets, 1.0 / distances)
        # A row's first distance is the smallest of each of its prefixes.
        rows = np.flatnonzero(~np.isfinite(out).all(axis=1))
        scaled = _weighted_prefix_means(targets[rows], distances[rows, :1] / distances[rows])
        out[rows] = np.where(np.isfinite(out[rows]), out[rows], scaled)
    # Zero distances sort first: a row with z of them averages its first
    # min(k, z) targets at every k.
    n_zero = np.count_nonzero(distances == 0.0, axis=1)
    rows = np.flatnonzero(n_zero)
    prefix = np.minimum(counts, n_zero[rows, None])
    out[rows] = np.take_along_axis(sums[rows], prefix, axis=1) / prefix
    return out


def _weighted_prefix_means(targets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return _prefix_sums(weights * targets)[:, 1:] / _prefix_sums(weights)[:, 1:]


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """Left-to-right running sums along each row, starting from a 0.0 column.

    np.add.accumulate adds in order like the scalar loops; the leading 0.0
    is their starting total, which turns a -0.0 first term into 0.0.
    """
    start = np.zeros((values.shape[0], 1))
    return np.add.accumulate(np.concatenate((start, values), axis=1), axis=1)


def predict_one(model: KnnModel, q) -> float:
    """Predict the target for one raw feature vector: predict's one-row case."""
    return _prefix_rows(model, _model_vector(model, q)[None, :])[0, -1].item()


def predict(model: KnnModel, queries: Dataset) -> np.ndarray:
    """Predict every query row, in row order, from one neighbor query."""
    return prefix_predictions(model, queries)[:, -1]


def prefix_predictions(model: KnnModel, queries: Dataset) -> np.ndarray:
    """(m, model.k) predictions for every query row from one neighbor query:
    entry (i, j) is the prediction for row i at k = j + 1."""
    return _prefix_rows(model, _model_features(model, queries))


def _prefix_rows(model: KnnModel, features: np.ndarray) -> np.ndarray:
    """prefix_predictions for an (m, d) matrix in model feature space."""
    ns = model.index.query(features, model.k)
    inverse = model.weighting is WeightingMode.INVERSE_DISTANCE
    if inverse and np.any(ns.distances[:, 0] == np.inf):
        raise ValueError(_INF_DISTANCES)
    targets = model.train.target[ns.indices]
    return predict_prefixes(targets, ns.distances, model.weighting)


def _model_vector(model: KnnModel, q) -> np.ndarray:
    """One raw feature vector in model feature space; rejects anything else."""
    return _model_rows(model, model.index.check_query(q, vector_only=True)[None, :])[0]


def _model_features(model: KnnModel, queries: Dataset) -> np.ndarray:
    """The query rows' features in model feature space."""
    if (
        queries.column_names != model.train.column_names
        or queries.column_kinds != model.train.column_kinds
    ):
        raise SchemaError("query schema does not match the model's training schema")
    return _model_rows(model, queries.features)


def _model_rows(model: KnnModel, rows: np.ndarray) -> np.ndarray:
    """A raw (m, d) feature matrix in model feature space."""
    return rows if model.standardizer is None else model.standardizer.transform(rows)


def unit_ball_volume(dim: int) -> float:
    """Volume of the euclidean unit ball in ``dim`` dimensions.

    From 342 dimensions on, gamma(d/2 + 1) overflows a float although the
    volume does not; there it is taken in log space.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    try:
        return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    except OverflowError:
        return math.exp(_log_unit_ball_volume(dim))


def _log_unit_ball_volume(dim: int) -> float:
    """log of :func:`unit_ball_volume`, which stays finite at any ``dim``."""
    return dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0)


def estimate_density(model: KnnModel, q) -> DensityEstimate:
    """k-neighbor density estimate k / (n * V) at one query vector.

    V is the euclidean d-ball whose radius reaches the k-th neighbor.
    A zero radius (query sitting on enough training points) is reported
    as :class:`ZeroRadiusError` rather than as an infinite number. Where
    V leaves float range at a nonzero radius, the estimate is taken in log
    space, and is inf or 0.0 only where k / (n * V) itself leaves it.
    """
    radius = float(_kth_radii(model, _model_vector, q))
    if radius == 0.0:
        raise ZeroRadiusError(
            "k-th neighbor distance is zero; the density estimate is unbounded here"
        )
    return DensityEstimate(value=_density(model, radius))


def estimate_densities(model: KnnModel, queries: Dataset) -> np.ndarray:
    """estimate_density at every query row, in row order, from one neighbor
    query; a zero radius gives inf instead of ZeroRadiusError."""
    radii = _kth_radii(model, _model_features, queries)
    return np.array([_density(model, r) for r in radii.tolist()])


def _kth_radii(model: KnnModel, to_model_space, queries) -> np.ndarray:
    """k-th neighbor distances of ``to_model_space(model, queries)``, a
    vector or a matrix of rows, from one neighbor query."""
    if model.metric is not DistanceMetric.EUCLIDEAN:
        raise ValueError("density estimation requires the euclidean metric")
    return model.index.query(to_model_space(model, queries), model.k).distances[..., -1]


def _density(model: KnnModel, radius: float) -> float:
    """k / (n * V) at k-th neighbor distance ``radius``, in Python floats.

    Where V = unit * radius**d leaves float range, the density is
    exp(log(k / n) - log V) instead, with log V taken term by term; it is
    inf where that overflows or the radius is 0, and 0.0 where it underflows.
    """
    dim = model.train.n_columns
    try:
        volume = unit_ball_volume(dim) * radius**dim
    except OverflowError:
        volume = math.inf
    if 0.0 < volume < math.inf:
        return model.k / (model.train.n_rows * volume)
    if radius == 0.0:
        return math.inf
    log_volume = _log_unit_ball_volume(dim) + dim * math.log(radius)
    try:
        return math.exp(math.log(model.k / model.train.n_rows) - log_volume)
    except OverflowError:
        return math.inf
