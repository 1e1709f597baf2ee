"""Hyper-inverse-Wishart math for decomposable Gaussian models.

The covariance prior places an inverse-Wishart law on every clique marginal:
for a clique C the density of Sigma_C is proportional to
det(Sigma_C)^-((delta + 2|C|)/2) * exp(-tr(Sigma_C^-1 Phi_C)/2), which is the
standard inverse Wishart with degrees of freedom delta + |C| - 1 and scale
Phi_C.  The graph-level normalizing constant is the product of clique
constants divided by the product of separator constants, and conjugacy gives
the closed-form marginal likelihood implemented below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import fsum, isfinite, lgamma, log, log1p, pi, sqrt

import numpy as np

from .errors import (
    DomainError,
    MismatchedModelError,
    NonFiniteError,
    NotSPDError,
    SingularScatterError,
    ZeroVarianceError,
)
from .graphs import Graph, edge_pair, iter_bits, n_candidate_edges

LOG_2PI = log(2.0 * pi)

PHI_MODES = ("scaled_identity", "empirical_gprior")
GRAPH_PRIORS = ("bernoulli", "beta_binomial", "uniform")
# largest condition number of shift * I + S_C scored from its eigenvalues
SPECTRAL_COND = 1e4


@dataclass(frozen=True)
class Hyperparams:
    """Fixed hyperparameters of the graph-and-covariance model.

    tau only matters in scaled_identity mode (Phi = tau * I); r only matters
    under the bernoulli edge prior.
    """

    delta: float = 1.0
    phi_mode: str = "scaled_identity"
    tau: float = 1.0
    graph_prior: str = "bernoulli"
    r: float = 0.5

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.phi_mode not in PHI_MODES:
            raise ValueError(f"phi_mode must be one of {PHI_MODES}, "
                             f"got {self.phi_mode!r}")
        if self.graph_prior not in GRAPH_PRIORS:
            raise ValueError(f"graph_prior must be one of {GRAPH_PRIORS}, "
                             f"got {self.graph_prior!r}")
        if self.phi_mode == "scaled_identity" and not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.phi_mode == "scaled_identity" and not isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if self.graph_prior == "bernoulli" and not 0.0 < self.r < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {self.r}")


@dataclass(frozen=True, eq=False)
class DatasetStats:
    """Processed data rows plus the scatter matrix sum_i y_i y_i'.

    The eigenvalues of each scatter block are cached per vertex bitmask
    (spectrum) and the clique-size gamma tables per delta (gamma_tables), so
    every scorer built on these stats shares them.
    """

    data: np.ndarray
    scatter: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False)
    _gammas: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def p(self):
        return self.data.shape[1]

    @cached_property
    def inv_empirical(self):
        """Inverse of the empirical covariance scatter/n.

        Raises SingularScatterError when scatter is not positive definite
        (for instance when n < p or columns are collinear).
        """
        try:
            lo = np.linalg.cholesky(self.scatter / self.n)
        except np.linalg.LinAlgError as exc:
            raise SingularScatterError(
                f"scatter matrix is singular (n={self.n}, p={self.p})"
            ) from exc
        half = np.linalg.inv(lo)
        return half.T @ half

    def spectrum(self, mask):
        """Ascending eigenvalues of the scatter block on the vertices in mask."""
        lam = self._spectra.get(mask)
        if lam is None:
            idx = _index(mask)
            lam = tuple(np.linalg.eigvalsh(self.scatter[idx[:, None], idx]).tolist())
            self._spectra[mask] = lam
        return lam

    def gamma_tables(self, delta):
        """Lists a_pri, a_post, lg_pri, lg_post indexed by clique size q = 0..p:
        a = (q + delta - 1)/2 before the data and (q + delta + n - 1)/2 after,
        lg = log Gamma_q(a) (0 at q = 0); memoized per delta."""
        tables = self._gammas.get(delta)
        if tables is None:
            n, sizes = self.n, range(self.p + 1)
            a_pri = [(q + delta - 1) / 2.0 for q in sizes]
            a_post = [(q + delta + n - 1) / 2.0 for q in sizes]
            tables = (a_pri, a_post,
                      [log_multivariate_gamma(q, a_pri[q]) if q else 0.0 for q in sizes],
                      [log_multivariate_gamma(q, a_post[q]) if q else 0.0 for q in sizes])
            self._gammas[delta] = tables
        return tables

    @classmethod
    def from_data(cls, raw, center=True, standardize=True):
        """Build stats from an (n, p) array, optionally centering and scaling.

        Standardization divides by the sample standard deviation with the
        n-1 denominator and requires n >= 2; a constant column raises
        ZeroVarianceError.  Each column is first divided by a power of two
        near its largest magnitude, and multiplied back after centering when
        it is not standardized: that is exact, so the result keeps its bits,
        and neither the centering nor the squares in the deviation overflow
        or underflow at any finite scale.  A step that still overflows, or a
        varying column whose squares all underflow, as in the scatter of
        unstandardized data near 1e200 or 1e-200, raises NonFiniteError
        naming the first column at fault (columns count from 1).
        """
        y = np.asarray(raw, dtype=float)
        if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
            raise ValueError(f"need a 2-d data array, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("data contains non-finite values")
        if standardize and y.shape[0] < 2:
            raise ValueError("standardization needs at least 2 rows")
        stats = cls._processed(y, center, standardize)
        if stats is None:
            col = next(j for j in range(y.shape[1])
                       if cls._processed(y[:, j:j + 1], center, standardize) is None)
            raise NonFiniteError(f"column {col + 1}: centering or squaring it leaves "
                                 "the floating-point range; rescale the data")
        return stats

    @classmethod
    def _processed(cls, y, center, standardize):
        """from_data on checked data, or None when a column leaves the
        floating-point range."""
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            try:
                scale = np.ldexp(1.0, np.frexp(np.abs(y).max(axis=0))[1] - 1)
                y = y / scale
                if center:
                    y = y - y.mean(axis=0)
                if standardize:
                    sd = y.std(axis=0, ddof=1)
                    bad = np.flatnonzero(sd == 0.0)
                    if bad.size:
                        raise ZeroVarianceError(f"column {bad[0] + 1} has zero variance")
                    y = y / sd
                else:
                    y = y * scale
                scatter = y.T @ y
            except FloatingPointError:
                return None
        # an overflow in a BLAS worker thread sets no flag in this one, and a
        # varying column whose squares all underflow would score as constant
        if not np.all(np.isfinite(scatter)) or np.any(
                (scatter.diagonal() == 0.0) & np.any(y != 0.0, axis=0)):
            return None
        return cls(data=y, scatter=scatter)


def _index(mask):
    """Vertex positions of mask as an index array, ascending."""
    return np.fromiter(iter_bits(mask), dtype=np.intp)


def phi_matrix(hp: Hyperparams, stats: DatasetStats):
    """Materialize the prior scale matrix Phi for the given mode."""
    if hp.phi_mode == "scaled_identity":
        return hp.tau * np.eye(stats.p)
    return stats.scatter / stats.n


def log_multivariate_gamma(v, a):
    """log Gamma_v(a) = v(v-1)/4 log pi + sum_{j=1..v} log Gamma(a + (1-j)/2)."""
    if v < 0:
        raise DomainError(f"dimension must be nonnegative, got {v}")
    if v == 0:
        return 0.0
    if not a > (v - 1) / 2.0:
        raise DomainError(f"need a > (v-1)/2, got a={a}, v={v}")
    out = v * (v - 1) / 4.0 * log(pi)
    for j in range(1, v + 1):
        out += lgamma(a + (1 - j) / 2.0)
    return out


def _chol_logdet(mat):
    try:
        lo = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError("matrix is not symmetric positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(lo))))


def log_iw_constant(phi_block, delta):
    """Log normalizing constant of the clique-marginal inverse Wishart.

    For a q x q scale block this is
    ((q + delta - 1)/2) log det(phi/2) - log Gamma_q((q + delta - 1)/2).
    A 0 x 0 block contributes 0.
    """
    phi_block = np.asarray(phi_block, dtype=float)
    q = phi_block.shape[0]
    if q == 0:
        return 0.0
    if phi_block.shape != (q, q) or not np.allclose(phi_block, phi_block.T):
        raise NotSPDError("scale block must be square and symmetric")
    a = (q + delta - 1) / 2.0
    return a * (_chol_logdet(phi_block) - q * log(2.0)) - log_multivariate_gamma(q, a)


def log_hiw_constant(g: Graph, delta, phi):
    """Log normalizing constant of the graph-wide covariance prior.

    Product of clique constants over product of separator constants, on the
    log scale, summed by math.fsum as PosteriorScorer.log_lik sums its
    terms, so it does not depend on the clique order either.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (g.p, g.p):
        raise ValueError(f"Phi must be {g.p} x {g.p}, got {phi.shape}")

    def block(mask):
        idx = _index(mask)
        return log_iw_constant(phi[np.ix_(idx, idx)], delta)

    return fsum([block(c) for c in g.cliques] + [-block(s) for s in g.separators if s])


def _log_h_ratio(g, stats, hp):
    """log h(delta, Phi) - log h(delta + n, Phi + scatter) of the graph."""
    phi = phi_matrix(hp, stats)
    return (log_hiw_constant(g, hp.delta, phi)
            - log_hiw_constant(g, hp.delta + stats.n, phi + stats.scatter))


def log_marginal_likelihood(g: Graph, stats: DatasetStats, hp: Hyperparams):
    """Log marginal density of the data given the graph, covariance integrated out.

    Equals log h(delta, Phi) - log h(delta + n, Phi + scatter) - (n p / 2) log 2 pi,
    where h is the graph-wide prior normalizing constant.  Zero when n = 0.
    """
    return _log_h_ratio(g, stats, hp) - stats.n * g.p / 2.0 * LOG_2PI


def log_graph_prior(g: Graph, hp: Hyperparams):
    """Log prior mass of the graph, up to a constant not depending on it.

    bernoulli: k log r + (m - k) log(1 - r) with k the edge count, as a raw
    product over candidate edges (no renormalization over the decomposable
    family, matching the estimation target of the stochastic EM driver).
    beta_binomial: -log C(m, k).  uniform: 0.
    """
    return _log_prior_of_count(g.edge_count, g.m, hp)


def _log_prior_of_count(k, m, hp):
    if hp.graph_prior == "bernoulli":
        return k * log(hp.r) + (m - k) * log(1.0 - hp.r)
    if hp.graph_prior == "beta_binomial":
        return -(lgamma(m + 1) - lgamma(k + 1) - lgamma(m - k + 1))
    return 0.0


def log_posterior_score(g: Graph, stats: DatasetStats, hp: Hyperparams):
    """Unnormalized log posterior of the graph; the 2 pi factor is dropped.

    score = log h(delta, Phi) - log h(delta + n, Phi + scatter) + log prior(g).
    """
    return _log_h_ratio(g, stats, hp) + log_graph_prior(g, hp)


class PosteriorScorer:
    """Cached posterior scorer bound to one (stats, hyperparams) pair.

    A graph's score is a correctly rounded sum of terms over the cliques
    and separators the Graph keeps, so it does not depend on their order.
    A term comes in closed form from the block's scatter eigenvalues lam
    (DatasetStats.spectrum, shared by every scorer on the same stats,
    whatever tau), since Phi_C and Phi_C + S_C are both functions of S_C:

      scaled_identity   log det Phi_C = q log tau
                        log det(Phi_C + S_C) = sum log(tau + lam)
      empirical_gprior  log det Phi_C = sum log lam - q log n
                        log det(Phi_C + S_C) = sum log lam + q log(1 + 1/n)

    eigvalsh gets each lam only to about eps * max(lam), so the closed form
    is used while shift + lam (shift = tau or 0) spans at most SPECTRAL_COND
    (an error of about q * eps * SPECTRAL_COND per log det).  A block past
    that, as badly scaled raw columns or n < p with a small tau give, is
    factored by Cholesky as log_hiw_constant does.

    Construction fails fast with NotSPDError, naming Phi or Phi + scatter,
    when the one it factors first is not SPD.
    """

    def __init__(self, stats: DatasetStats, hp: Hyperparams):
        self.stats = stats
        self.hp = hp
        self.p = stats.p
        n = stats.n
        scaled = hp.phi_mode == "scaled_identity"
        self._shift = hp.tau if scaled else 0.0
        # both modes: log det(block) - q log 2 = q * k + w * sum log(shift + lam)
        if scaled:
            self._w_pri, self._k_pri, self._k_post = 0.0, log(hp.tau / 2.0), -log(2.0)
        else:
            self._w_pri, self._k_pri = 1.0, -log(2.0 * n)
            self._k_post = log1p(1.0 / n) - log(2.0)
        self._a_pri, self._a_post, self._lg_pri, self._lg_post = stats.gamma_tables(hp.delta)
        self._terms = {}
        self._priors = {}
        self._prior_steps = {}
        try:
            self.term((1 << self.p) - 1)
        except NotSPDError as exc:
            # tau * I always factors, and S / n is factored before Phi + S
            which = "Phi + scatter" if scaled else "Phi"
            raise NotSPDError(
                f"{which} is not symmetric positive definite (phi_mode={hp.phi_mode}, "
                f"tau={hp.tau!r}, n={n}, p={self.p})") from exc

    def term(self, mask):
        """log h(delta, Phi_C) - log h(delta + n, Phi_C + S_C) of the vertex
        subset C in mask, memoized per mask.  log_lik adds it for every
        clique and subtracts it for every nonempty separator."""
        t = self._terms.get(mask)
        if t is not None:
            return t
        lam = self.stats.spectrum(mask)
        q = len(lam)
        shift = self._shift
        low, high = shift + lam[0], shift + lam[-1]
        if 0.0 < low and high <= low * SPECTRAL_COND:
            s = sum([log(shift + x) for x in lam])
            pri = self._a_pri[q] * (q * self._k_pri + self._w_pri * s) - self._lg_pri[q]
            post = self._a_post[q] * (q * self._k_post + s) - self._lg_post[q]
            t = pri - post
        else:
            idx = _index(mask)
            blk = self.stats.scatter[idx[:, None], idx]
            phi = shift * np.eye(q) if shift else blk / self.stats.n
            d = self.hp.delta
            t = log_iw_constant(phi, d) - log_iw_constant(phi + blk, d + self.stats.n)
        self._terms[mask] = t
        return t

    def log_lik(self, g: Graph):
        """log h(delta, Phi) - log h(delta + n, Phi + scatter) for this graph:
        the math.fsum of its clique terms and its negated nonempty separator
        terms.  fsum rounds the exact sum once, so the value depends on the
        two multisets only, never on the order a search found them in.

        Raises MismatchedModelError when g is not on the scorer's p vertices.
        """
        if g.p != self.p:
            raise MismatchedModelError(f"graph has p={g.p}, data have p={self.p}")
        # a memo read per term; term() runs on a miss (or on a memoized 0.0,
        # which it returns again)
        known, term = self._terms.get, self.term
        terms = [known(cm) or term(cm) for cm in g.cliques]
        terms += [-(known(sm) or term(sm)) for sm in g.separators if sm]
        return fsum(terms)

    def log_prior(self, n_edges):
        """log_graph_prior of any graph with n_edges edges, memoized per count."""
        val = self._priors.get(n_edges)
        if val is None:
            val = _log_prior_of_count(n_edges, n_candidate_edges(self.p), self.hp)
            self._priors[n_edges] = val
        return val

    def score(self, g: Graph):
        """Unnormalized log posterior of the graph (2 pi factor dropped).

        Raises MismatchedModelError when g is not on the scorer's p vertices.
        """
        return self.log_lik(g) + self.log_prior(g.edge_count)

    def flip_change(self, g: Graph, k):
        """Score change from flipping edge slot k, a legal move of g.

        With (x, y) at slot k, S = N(x) & N(y) and t = term (t(empty) = 0),
        an addition changes log_lik by t(S+x+y) + t(S) - t(S+x) - t(S+y)
        (Giudici and Green 1999).  A removable edge lies in one maximal
        clique C, which holds the triangle of x, y and any common neighbour,
        so S = C - {x, y} and a deletion changes log_lik by minus the same.
        The log prior change of the edge count is added.  Raises ValueError
        unless 0 <= k < m."""
        x, y = edge_pair(self.p, k)
        return self._flip_change(g, k, x, y)

    def _flip_change(self, g: Graph, k, x, y):
        """flip_change of slot k, whose vertex pair (x, y) the caller read.
        The prior change of an addition to n + 1 edges is memoized per n; a
        deletion to n edges is minus that of an addition from n, exactly."""
        adj, bx, by = g.adjacency, 1 << x, 1 << y
        s = adj[x] & adj[y]
        known, term = self._terms.get, self.term  # memo reads, as in log_lik
        sxy, sx, sy = s | bx | by, s | bx, s | by
        change = ((known(sxy) or term(sxy)) + ((known(s) or term(s)) if s else 0.0)
                  - (known(sx) or term(sx)) - (known(sy) or term(sy)))
        edges = g.edges
        delete = edges >> k & 1
        n = edges.bit_count() - delete  # edge count without slot k
        step = self._prior_steps.get(n)
        if step is None:
            step = self._prior_steps[n] = self.log_prior(n + 1) - self.log_prior(n)
        return -(change + step) if delete else change + step


def _bartlett_rows(bart, df, rng):
    """Fill the q x q matrix bart, zero above its diagonal, with a Bartlett
    factor in place.

    Row i takes one chi-square on df - i degrees, then i normals below the
    diagonal; every draw from the HIW law keeps this order of calls.
    """
    for i in range(bart.shape[0]):
        bart[i, i] = sqrt(rng.chisquare(df - i))
        if i:
            rng.standard_normal(out=bart[i, :i])


def _iw_from_factors(bart, lo):
    """Inverse-Wishart draws from Bartlett factors and the Cholesky factors
    of their scales, one per matrix of a stack."""
    half = np.linalg.solve(bart, lo.mT).mT
    return half @ half.mT


def _draw_blocks(phi, res, sep, barts, noises):
    """Residual covariances U and regressions B of a stack of blocks of one
    shape (s, r): res (k, r) and sep (k, s) index Phi, and barts (k, r, r)
    and noises (k, s, r) hold each block's Bartlett factor and normals,
    drawn beforehand.  With s = 0, U is the inverse-Wishart draw on Phi_R
    and B is None."""
    rr, rc = res[:, None, :], res[:, :, None]
    if not sep.shape[1]:
        return _iw_from_factors(barts, np.linalg.cholesky(phi[rc, rr])), None
    sv, sc = sep[:, None, :], sep[:, :, None]
    pss = phi[sc, sv]
    psr = phi[sc, rr]
    lss = np.linalg.cholesky(pss)
    m_reg = np.linalg.solve(pss, psr)
    prr_s = phi[rc, rr] - psr.mT @ m_reg
    prr_s = (prr_s + prr_s.mT) / 2.0
    u_blk = _iw_from_factors(barts, np.linalg.cholesky(prr_s))
    # regression rows have covariance pss^-1, columns the drawn residual
    a_half = np.linalg.inv(lss).mT
    c_half = np.linalg.cholesky(u_blk)
    return u_blk, m_reg + a_half @ noises @ c_half.mT


def _draw_factors(g: Graph, delta, phi, rng):
    """Check the input of an HIW draw on g and make all its random calls
    (pass 1), in the perfect clique order: each clique's Bartlett rows,
    then its |S| x |R| regression noise.

    Returns (phi as a float array, shapes, res, sep, barts, noises), with
    one entry per clique in that order.  shapes holds each (|S|, |R|).
    Each row of res (k, r_max) and sep (k, s_max) lists the clique's
    residual or separator vertices, then padding indices: p, p + 1, ...
    in res and p + r_max, p + r_max + 1, ... in sep.  barts (k, r_max,
    r_max) holds each Bartlett factor in its top-left corner and 1 on the
    rest of the diagonal, and noises (k, s_max, r_max) each noise in its
    top-left corner and zeros round it.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (g.p, g.p):
        raise ValueError(f"Phi must be {g.p} x {g.p}, got {phi.shape}")
    if not delta > 0:
        raise DomainError(f"need delta > 0, got delta={delta}")
    seps = (0, *g.separators)
    shapes = [(sm.bit_count(), (cm & ~sm).bit_count()) for cm, sm in zip(g.cliques, seps)]
    s_max, r_max = map(max, zip(*shapes))
    barts = np.zeros((len(shapes), r_max, r_max))
    barts.reshape(len(shapes), -1)[:, ::r_max + 1] = 1.0
    noises = np.zeros((len(shapes), s_max, r_max))
    res, sep = [], []
    for j, (cm, sm) in enumerate(zip(g.cliques, seps)):
        s, r = shapes[j]
        res.append([*iter_bits(cm & ~sm), *range(g.p, g.p + r_max - r)])
        sep.append([*iter_bits(sm), *range(g.p + r_max, g.p + r_max + s_max - s)])
        _bartlett_rows(barts[j, :r, :r], delta + cm.bit_count() - 1, rng)
        if s:
            noises[j, :s, :r] = rng.standard_normal((s, r))
    return (phi, shapes, np.array(res, dtype=np.intp), np.array(sep, dtype=np.intp),
            barts, noises)


def _blocks_by_shape(phi, shapes, res, sep, barts, noises):
    """(R, S, U, B) per clique from pass 1's factors, with one stacked call
    per routine and block shape (|S|, |R|) and no padding (pass 2)."""
    groups = {}  # (|S|, |R|) -> clique positions
    for j, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(j)
    blocks = [None] * len(shapes)
    for (s, r), js in groups.items():
        js = np.array(js)
        rs, ss = res[js, :r], sep[js, :s]
        try:
            u_blk, b_reg = _draw_blocks(phi, rs, ss, barts[js, :r, :r], noises[js, :s, :r])
        except np.linalg.LinAlgError as exc:
            raise NotSPDError(f"Phi is not SPD on a clique with |S|={s}, |R|={r}") from exc
        for k, j in enumerate(js):
            blocks[j] = rs[k], ss[k], u_blk[k], None if b_reg is None else b_reg[k]
    return blocks


def sample_hiw(g: Graph, delta, phi, rng):
    """Draw a covariance matrix whose inverse respects the graph's zeros.

    Walks a perfect clique order: the first clique block is inverse Wishart,
    and each later clique draws its residual block and regression onto the
    separator, then extends the matrix so that the new vertices are
    conditionally independent of everything earlier given the separator.
    On the complete graph the draw is the inverse Wishart on Phi with
    delta + p - 1 degrees of freedom, in scipy's parametrization.

    The draw runs in three passes.  Pass 1 (_draw_factors) makes every
    random call in that clique order (each clique's Bartlett rows, then its
    regression noise).  Pass 2 stacks the blocks of each shape (|S|, |R|)
    and makes each factorization, solve, inverse and product once for the
    whole stack; numpy runs the same LAPACK or BLAS routine on every matrix
    of a stack, so each block keeps the bits a call on it alone gives.
    Pass 3 extends Sigma clique by clique, the only step that needs the
    earlier blocks.
    """
    factors = _draw_factors(g, delta, phi, rng)
    blocks = _blocks_by_shape(*factors)
    sigma = np.zeros((g.p, g.p))
    placed = 0
    for cm, (res, sv, u_blk, b_reg) in zip(g.cliques, blocks):
        rc = res[:, None]
        if b_reg is None:
            sigma[rc, res] = u_blk
        else:
            sc = sv[:, None]
            pl = _index(placed)
            cross = b_reg.T @ sigma[sc, pl]
            sigma[rc, pl] = cross
            sigma[pl[:, None], res] = cross.T
            sigma[rc, res] = u_blk + b_reg.T @ sigma[sc, sv] @ b_reg
        placed |= cm
    return sigma


def sample_hiw_inverse_trace(g: Graph, delta, phi, rng):
    """tr(Sigma^-1) of the covariance that sample_hiw(g, delta, phi, rng)
    draws, with the same random calls, so the generator ends in the same
    state, and the same errors; Sigma itself is never formed.

    In sample_hiw's construction clique j adds to Sigma^-1 the precision of
    its residual R given its separator S, [-B; I] U^-1 [-B' I] on (S, R),
    and nothing else (Dawid and Lauritzen 1993).  So tr(Sigma^-1) is the
    sum over cliques of tr(U^-1 (I + B'B)).  Every clique goes into one
    stack, whatever its shape: pass 1's padding indices read Phi bordered
    by an identity, so a padded block is its own block beside an identity,
    with zero cross terms and noise, and the padded diagonal is left out of
    the sum.  Each routine of the block algebra runs once per draw.
    """
    phi, _, res, sep, barts, noises = factors = _draw_factors(g, delta, phi, rng)
    bordered = np.eye(g.p + res.shape[1] + sep.shape[1])
    bordered[:g.p, :g.p] = phi
    try:
        u_blk, b_reg = _draw_blocks(bordered, res, sep, barts, noises)
    except np.linalg.LinAlgError as exc:
        _blocks_by_shape(*factors)  # raises sample_hiw's NotSPDError for the shape
        raise NotSPDError("Phi is not SPD on a clique") from exc
    eye = np.eye(res.shape[1])
    inner = np.linalg.solve(u_blk, eye if b_reg is None else eye + b_reg.mT @ b_reg)
    return float(np.einsum("kii->ki", inner)[res < g.p].sum())  # tr U^-1 (I + B'B)


def simulate_dataset(g: Graph, tau, delta, n, rng):
    """Simulate n zero-mean rows from a covariance drawn around tau * I.

    Returns (data, stats); the stats are computed from the raw rows without
    centering or scaling, so a round trip through CSV reproduces them.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    sigma = sample_hiw(g, delta, tau * np.eye(g.p), rng)
    lo = np.linalg.cholesky(sigma)
    data = rng.standard_normal((n, g.p)) @ lo.T
    return data, DatasetStats.from_data(data, center=False, standardize=False)
