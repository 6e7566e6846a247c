"""Laptop-scale proxies for the paper's datasets (Table 4).

The paper evaluates on Audio (54k x 192, ED), Fonts (745k x 400, ISD),
Deep (1M x 256, ED), Sift (11.2M x 128, ED), plus synthetic Normal
(50k x 200, ED) and Uniform (50k x 200, ISD).  The real files are not
available offline, so each proxy synthesises data with the same
dimensionality character at a reduced default size:

* the same dimensionality and divergence pairing as the paper,
* mixture-of-Gaussians cluster structure (what BB-trees exploit),
* correlated dimension groups (what PCCP exploits),
* value ranges kept inside each divergence's numeric comfort zone
  (positive support for ISD; |x| small enough that ED never overflows).

These three properties are what the compared methods' relative
behaviour depends on; ``PAPER_SHAPES`` in ``benchmarks/run_all.py``
records, figure by figure, where that behaviour reproduces on the
proxies and where it deviates.
"""

from __future__ import annotations

import numpy as np

from ..divergences.exponential import ExponentialDistance
from ..divergences.itakura_saito import ItakuraSaito
from ..exceptions import InvalidParameterError
from .loader import Dataset, split_queries
from .synthetic import correlated_matrix, normal_matrix, uniform_matrix

__all__ = ["load_dataset", "available_datasets", "PAPER_SCALE"]

#: the paper's Table 4, for reporting alongside our laptop-scale runs.
PAPER_SCALE = {
    "audio": {"n": 54_387, "d": 192, "M": 28, "page": "32KB", "measure": "ED"},
    "fonts": {"n": 745_000, "d": 400, "M": 50, "page": "128KB", "measure": "ISD"},
    "deep": {"n": 1_000_000, "d": 256, "M": 37, "page": "64KB", "measure": "ED"},
    "sift": {"n": 11_164_866, "d": 128, "M": 22, "page": "64KB", "measure": "ED"},
    "normal": {"n": 50_000, "d": 200, "M": 25, "page": "32KB", "measure": "ED"},
    "uniform": {"n": 50_000, "d": 200, "M": 21, "page": "32KB", "measure": "ISD"},
}

_DEFAULT_SIZES = {
    "audio": 4000,
    "fonts": 4000,
    "deep": 5000,
    "sift": 8000,
    "normal": 4000,
    "uniform": 4000,
}


def _multimedia_matrix(
    n: int,
    d: int,
    seed: int,
    n_clusters: int,
    group_size: int,
    energy_sigma: float,
    pattern_scale: float,
    noise: float,
    positive: bool,
) -> np.ndarray:
    """Shared builder capturing the structure of multimedia features.

    Three ingredients, each load-bearing for a different mechanism in the
    paper:

    * a heavy-tailed per-vector energy level (loudness of an audio
      frame, contrast of a SIFT patch, ink density of a glyph) -- this is
      what makes the per-point summaries ``(alpha_x, gamma_x)``
      discriminative, i.e. what gives the Cauchy filter its pruning
      power;
    * per-group latent factors with mixture (cluster) structure shared
      by ``group_size`` consecutive dimensions -- the inter-dimension
      correlation PCCP discovers and spreads, and the clusterability
      BB-trees exploit;
    * small independent per-dimension noise.
    """
    rng = np.random.default_rng(seed)
    n_groups = -(-d // group_size)
    centers = rng.normal(0.0, 1.0, size=(n_clusters, n_groups))
    labels = rng.integers(n_clusters, size=n)
    latent = centers[labels] + 0.3 * rng.normal(0.0, 1.0, size=(n, n_groups))
    energy = rng.normal(0.0, energy_sigma, size=(n, 1))
    group_of = np.minimum(np.arange(d) // group_size, n_groups - 1)
    log_points = (
        energy
        + pattern_scale * latent[:, group_of]
        + noise * rng.normal(0.0, 1.0, size=(n, d))
    )
    return np.exp(log_points) if positive else log_points


def _audio(n: int, d: int, seed: int) -> np.ndarray:
    # Spectral audio frames: loudness varies per frame (energy), bands
    # within a critical band are correlated; real-valued, safe for ED.
    return _multimedia_matrix(
        n, d, seed, n_clusters=15, group_size=12,
        energy_sigma=0.8, pattern_scale=0.5, noise=0.2, positive=False,
    )


def _fonts(n: int, d: int, seed: int) -> np.ndarray:
    # Font glyph descriptors: positive, ink density varies per glyph,
    # strokes correlate strongly (ISD).
    return _multimedia_matrix(
        n, d, seed, n_clusters=20, group_size=16,
        energy_sigma=0.9, pattern_scale=0.45, noise=0.25, positive=True,
    )


def _deep(n: int, d: int, seed: int) -> np.ndarray:
    # CNN embeddings: strong class clusters, moderate activation-energy
    # spread, milder correlation (ED).
    return _multimedia_matrix(
        n, d, seed, n_clusters=25, group_size=8,
        energy_sigma=0.7, pattern_scale=0.55, noise=0.25, positive=False,
    )


def _sift(n: int, d: int, seed: int) -> np.ndarray:
    # SIFT gradient histograms: patch contrast drives a heavy-tailed
    # magnitude, orientation bins of one spatial cell correlate; scaled
    # into ED's comfortable range (ED).
    return 0.8 * _multimedia_matrix(
        n, d, seed, n_clusters=30, group_size=8,
        energy_sigma=1.0, pattern_scale=0.4, noise=0.3, positive=False,
    )


_GENERATORS = {
    "audio": (_audio, 192, ExponentialDistance, 32 * 1024),
    "fonts": (_fonts, 400, ItakuraSaito, 128 * 1024),
    "deep": (_deep, 256, ExponentialDistance, 64 * 1024),
    "sift": (_sift, 128, ExponentialDistance, 64 * 1024),
}


def available_datasets() -> list[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(set(_GENERATORS) | {"normal", "uniform"})


def load_dataset(
    name: str,
    n: int | None = None,
    d: int | None = None,
    n_queries: int = 50,
    seed: int = 0,
) -> Dataset:
    """Build one of the paper's six datasets at laptop scale.

    Parameters
    ----------
    name:
        One of ``audio``, ``fonts``, ``deep``, ``sift`` (proxies) or
        ``normal``, ``uniform`` (the paper's synthetics).
    n:
        Total points generated (queries are held out of these); defaults
        to a laptop-scale size per dataset.
    d:
        Override the dimensionality (used by the Fig. 13 sweep).
    n_queries:
        Held-out query count (paper uses 50).
    seed:
        Reproducibility seed.
    """
    key = name.lower()
    n = n if n is not None else _DEFAULT_SIZES.get(key)
    if n is None:
        raise InvalidParameterError(f"unknown dataset {name!r}; see available_datasets()")

    if key == "normal":
        d = d if d is not None else 200
        matrix = normal_matrix(n, d, seed=seed)
        divergence, page = ExponentialDistance(), 32 * 1024
        description = "i.i.d. standard normal (paper synthetic), ED"
    elif key == "uniform":
        d = d if d is not None else 200
        matrix = uniform_matrix(n, d, seed=seed)
        divergence, page = ItakuraSaito(), 32 * 1024
        description = "i.i.d. uniform positive (paper synthetic), ISD"
    elif key in _GENERATORS:
        generator, default_d, div_cls, page = _GENERATORS[key]
        d = d if d is not None else default_d
        matrix = generator(n, d, seed)
        divergence = div_cls()
        description = f"synthetic proxy for the paper's {name} dataset"
    else:
        raise InvalidParameterError(f"unknown dataset {name!r}; see available_datasets()")

    points, queries = split_queries(matrix, n_queries=n_queries, seed=seed + 1)
    return Dataset(
        name=key,
        points=points,
        queries=queries,
        divergence=divergence,
        page_size_bytes=page,
        description=description,
        paper_scale=PAPER_SCALE.get(key, {}),
    )
