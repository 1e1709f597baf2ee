"""Output checks, run after each workload command and outside its timing.

They share no code with the path they check: CSVs are parsed with the csv
module, data statistics are recomputed with numpy, chordality is decided by
networkx, and scores are recomputed with the functional
`log_posterior_score` / `log_marginal_likelihood` rather than the cached
`PosteriorScorer` the commands use.  Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import itertools
import math
import os

import networkx as nx
import numpy as np

REL_TOL = 1e-9
N_SCORE_SAMPLES = 40
# Labelled chordal graphs on 5 and 6 vertices (OEIS A058862).
N_CHORDAL = {5: 822, 6: 18154}
# The grid exact_marginal_mle uses by default.
TAU_GRID = np.geomspace(1e-3, 1e2, 60)
R_GRID = np.linspace(0.02, 0.98, 49)


def _rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def _read_rows(path, header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != list(header):
            raise ValueError(f"{os.path.basename(path)}: header {got}")
        return list(reader)


def load_stats(data_csv):
    """Centered, standardized data and its scatter, as the CLI defaults do."""
    from ebggm.hiw import DatasetStats

    raw = np.loadtxt(data_csv, delimiter=",", skiprows=1, ndmin=2)
    y = raw - raw.mean(axis=0)
    y = y / y.std(axis=0, ddof=1)
    return DatasetStats(data=y, scatter=y.T @ y)


class ChordalOracle:
    """networkx chordality by graph ID, remembered across a run's iterations."""

    def __init__(self):
        self._known = {}

    @staticmethod
    def edges(p, gid):
        pairs = itertools.combinations(range(p), 2)
        return [pair for k, pair in enumerate(pairs) if gid >> k & 1]

    def is_chordal(self, p, gid):
        key = (p, gid)
        if key not in self._known:
            g = nx.Graph()
            g.add_nodes_from(range(p))
            g.add_edges_from(self.edges(p, gid))
            self._known[key] = nx.is_chordal(g)
        return self._known[key]

    def all_chordal(self, p):
        return [gid for gid in range(1 << (p * (p - 1) // 2))
                if self.is_chordal(p, gid)]


def _score_problems(ids_scores, stats, hp, rng, what):
    from ebggm.graphs import Graph
    from ebggm.hiw import log_posterior_score

    items = sorted(ids_scores.items())
    picks = rng.choice(len(items), size=min(N_SCORE_SAMPLES, len(items)),
                       replace=False)
    out = []
    for i in sorted(picks):
        gid, logged = items[i]
        want = log_posterior_score(Graph(stats.p, gid), stats, hp)
        if not _rel_err(logged, want) <= REL_TOL:
            out.append(f"{what}: graph {gid:x} score {logged!r}, "
                       f"recomputed {want!r}")
    return out


def check_sample(out_dir, data_csv, hp, n_steps, n_burn, oracle, rng):
    """visits.csv: one row per step, legal moves, chordal graphs, true scores."""
    try:
        rows = _read_rows(os.path.join(out_dir, "visits.csv"),
                          ("step", "graph_id", "k_edges", "log_score", "accepted"))
    except (OSError, ValueError) as exc:
        return [f"visits.csv: {exc}"]
    if len(rows) != n_steps:
        return [f"visits.csv: {len(rows)} rows for {n_steps} steps"]
    stats = load_stats(data_csv)
    n_ids = 1 << (stats.p * (stats.p - 1) // 2)
    problems = []
    scores = {}
    prev = None
    for t, cells in enumerate(rows):
        where = f"visits.csv row {t + 2}"
        try:
            step, gid, k, score, acc = (int(cells[0]), int(cells[1], 16),
                                        int(cells[2]), float(cells[3]), cells[4])
        except (ValueError, IndexError):
            problems.append(f"{where}: malformed {cells}")
            break
        if step != n_burn + t + 1:
            problems.append(f"{where}: step {step}, expected {n_burn + t + 1}")
        if not 0 <= gid < n_ids:
            problems.append(f"{where}: graph_id {cells[1]} out of range")
            break
        if k != gid.bit_count():
            problems.append(f"{where}: k_edges {k} for graph {gid:x}")
        if acc not in ("0", "1"):
            problems.append(f"{where}: accepted={acc!r}")
        elif prev is not None and (gid ^ prev).bit_count() != int(acc):
            problems.append(f"{where}: accepted={acc} but graph moved "
                            f"{(gid ^ prev).bit_count()} edges")
        if not math.isfinite(score):
            problems.append(f"{where}: score {score!r}")
        elif gid in scores and not _rel_err(score, scores[gid]) <= REL_TOL:
            problems.append(f"{where}: graph {gid:x} scored {score!r} and "
                            f"{scores[gid]!r}")
        scores.setdefault(gid, score)
        prev = gid
        if len(problems) >= 5:
            break
    if problems:
        return problems
    bad = [gid for gid in scores if not oracle.is_chordal(stats.p, gid)]
    if bad:
        return [f"visits.csv: {len(bad)} non-chordal graphs, e.g. {bad[0]:x}"]
    return _score_problems(scores, stats, hp, rng, "visits.csv")


def check_fit(out_dir, p, n_iter):
    """saem_trace.csv: one finite row per iteration; tau > 0; r in the clamp."""
    try:
        rows = _read_rows(os.path.join(out_dir, "saem_trace.csv"),
                          ("iter", "tau", "r", "s1", "s2", "s3", "accept_rate"))
        with open(os.path.join(out_dir, "summary.txt")) as fh:
            summary = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    except (OSError, ValueError) as exc:
        return [f"fit outputs: {exc}"]
    if len(rows) != n_iter:
        return [f"saem_trace.csv: {len(rows)} rows for {n_iter} iterations"]
    m = p * (p - 1) // 2
    lo = 1.0 / (10.0 * m)
    problems = []
    for t, cells in enumerate(rows):
        where = f"saem_trace.csv row {t + 2}"
        try:
            it, tau, r, *rest = int(cells[0]), *map(float, cells[1:])
        except (ValueError, IndexError):
            return [f"{where}: malformed {cells}"]
        if it != t + 1:
            problems.append(f"{where}: iter {it}")
        if not all(map(math.isfinite, (tau, r, *rest))):
            problems.append(f"{where}: non-finite value")
        elif not tau > 0 or not lo <= r <= 1.0 - lo:
            problems.append(f"{where}: tau={tau!r} r={r!r} outside the M-step range")
        if len(problems) >= 5:
            return problems
    if (summary.get("tau_hat") != rows[-1][1]
            or summary.get("r_hat") != rows[-1][2]):
        problems.append("summary.txt disagrees with the last trace row")
    return problems


def check_exact(out_dir, data_csv, hp, oracle, rng):
    """posterior.csv: every chordal graph once, probabilities sum to 1."""
    p = 6
    try:
        rows = _read_rows(os.path.join(out_dir, "posterior.csv"),
                          ("rank", "graph_id", "k_edges", "prob", "log_score"))
        ids = [int(c[1], 16) for c in rows]
        ks = [int(c[2]) for c in rows]
        probs = [float(c[3]) for c in rows]
        scores = [float(c[4]) for c in rows]
    except (OSError, ValueError, IndexError) as exc:
        return [f"posterior.csv: {exc}"]
    if not all(0 <= gid < 1 << (p * (p - 1) // 2) for gid in ids):
        return ["posterior.csv: graph_id out of range"]
    if len(rows) != N_CHORDAL[p] or len(set(ids)) != len(ids):
        return [f"posterior.csv: {len(set(ids))} distinct graphs in {len(rows)} "
                f"rows, expected {N_CHORDAL[p]}"]
    problems = []
    bad = [gid for gid in ids if not oracle.is_chordal(p, gid)]
    if bad:
        problems.append(f"posterior.csv: non-chordal graph {bad[0]:x}")
    if any(k != gid.bit_count() for gid, k in zip(ids, ks)):
        problems.append("posterior.csv: k_edges disagrees with graph_id")
    if any(a < b for a, b in zip(probs, probs[1:])):
        problems.append("posterior.csv: not sorted by decreasing probability")
    total = math.fsum(probs)
    if not abs(total - 1.0) <= 1e-12:
        problems.append(f"posterior.csv: probabilities sum to {total!r}")
    log_norm = np.logaddexp.reduce(np.asarray(scores))
    for i in rng.choice(len(rows), size=N_SCORE_SAMPLES, replace=False):
        want = math.exp(scores[i] - log_norm)
        if not _rel_err(probs[i], want) <= REL_TOL:
            problems.append(f"posterior.csv row {i + 2}: prob {probs[i]!r}, "
                            f"from scores {want!r}")
            break
    stats = load_stats(data_csv)
    return problems + _score_problems(dict(zip(ids, scores)), stats, hp, rng,
                                      "posterior.csv")


def check_mle(surface_path, data_csv, oracle, rng):
    """One seeded tau row of the exact_marginal_mle surface against a sum
    over networkx's chordal graphs."""
    from ebggm.graphs import Graph
    from ebggm.hiw import Hyperparams, log_marginal_likelihood

    p = 5
    try:
        surface = np.load(surface_path)
    except (OSError, ValueError) as exc:
        return [f"mle surface: {exc}"]
    if surface.shape != (len(TAU_GRID), len(R_GRID)):
        return [f"mle surface: shape {surface.shape}"]
    if not np.all(np.isfinite(surface)):
        return ["mle surface: non-finite values"]
    graphs = oracle.all_chordal(p)
    if len(graphs) != N_CHORDAL[p]:
        return [f"networkx finds {len(graphs)} chordal graphs at p={p}"]
    stats = load_stats(data_csv)
    m = p * (p - 1) // 2
    k = np.array([gid.bit_count() for gid in graphs])
    shift = stats.n * p / 2.0 * math.log(2.0 * math.pi)
    a = int(rng.integers(len(TAU_GRID)))
    hp = Hyperparams(delta=1.0, tau=float(TAU_GRID[a]))
    liks = np.array([log_marginal_likelihood(Graph(p, gid), stats, hp) + shift
                     for gid in graphs])
    want = np.logaddexp.reduce(liks[:, None] + np.outer(k, np.log(R_GRID))
                               + np.outer(m - k, np.log1p(-R_GRID)), axis=0)
    err = np.abs(surface[a] - want) / np.abs(want)
    if not np.all(err <= REL_TOL):
        return [f"mle surface row {a}: relative error {err.max():.3g}"]
    return []
