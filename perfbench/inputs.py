"""Seeded input generator for the benchmark workloads.

Each dataset name has a fixed model, a true graph and a covariance drawn
once from the name's own constant stream with the package's samplers
(`random_decomposable_graph` and `sample_hiw`, as `ebggm simulate` uses).
The rows of the i-th dataset of a run come from (--seed, i).  Redrawing the
covariance per seed made the bench9 chain's speed vary 2.5x between seeds,
too much for a steady benchmark; fixed models keep the inputs of one
workload alike while the seed still changes every row.

Inputs are written as plain CSV before any timing starts.  Their SHA-256
goes into the results, so two sets of runs can confirm they used the same
inputs; a change to either sampler shows up there.
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np

# name -> (stream, p, n, true graph)
DATASETS = {
    "figure1": (0, 9, 100, "bench9"),
    "p25": (1, 25, 200, "random"),
    "p6": (2, 6, 100, "random"),
    "p5": (3, 5, 100, "random"),
}
TAU = 0.03  # covariances are drawn around TAU * I


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def model(name):
    """(true graph, Cholesky factor of the covariance) of a dataset name."""
    from ebggm.graphs import bench9_graph, random_decomposable_graph
    from ebggm.hiw import sample_hiw

    stream, p, _, source = DATASETS[name]
    rng = np.random.default_rng([stream, 0])
    g = bench9_graph() if source == "bench9" else random_decomposable_graph(p, rng)
    sigma = sample_hiw(g, 1.0, TAU * np.eye(p), rng)
    return g, np.linalg.cholesky(sigma)


def make_dataset(name, seed, index, out_dir):
    """Write the index-th dataset of a seed; returns {"csv", "truth", "sha256"}."""
    stream, p, n, _ = DATASETS[name]
    g, chol = model(name)
    rng = np.random.default_rng([stream, 1, seed, index])
    data = rng.standard_normal((n, p)) @ chol.T
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(p)) + "\n")
        for row in data:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return {"csv": path, "truth": g.id_hex, "sha256": sha256_file(path)}
