"""Maximum-likelihood edge filter against a degree-preserving null model.

Edge weights are quantized to integer multiplicities (scale configurable,
default 1000 counts per weight unit). Under the null model an edge between
nodes i and j carries a Binomial(E, p) multiplicity with
p = k_i * k_j / (2 E^2), where k are quantized strengths and E is the total
multiplicity of the universe. Edges whose observed multiplicity has an upper
tail probability above the significance level are removed; at level 1 every
counted edge survives, and no tail is taken.

Intra-layer edges of each layer form their own null universe, as does the
inter-layer edge set of each unordered layer pair.

The exact judge of an edge is scipy's ``betainc``. Two classical bounds on
the binomial tail settle most edges first, and only the rest reach it:

- *keep* when c > mu = E p and the Chernoff bound exp(-E D(c/E || p)) is at
  most alpha / 2, D being the Kullback-Leibler divergence of Bernoulli laws;
- *drop* when alpha < 1/2 and c <= floor(mu): every median of Binomial(E, p)
  is at least floor(E p) (Kaas & Buhrman 1980), so the tail is above 1/2.

Neither rule can change a verdict. The Chernoff bound is never below the
exact tail, so a settled keep has a tail of at most alpha / 2, and betainc,
accurate to far better than a factor of 2, reads at most alpha too. A
settled drop has a tail above 1/2 > alpha. Both rules lean against settling
by ``_ROUNDING`` (2^-40 relative), which dwarfs the few units in the last
place that float arithmetic costs the exponent and the mean. That allowance
relies on p <= 1/2, which holds for every edge of a universe: its endpoint
strengths sum to at most 2E.

A third rule settles most of the close calls the bounds leave: the tail
summed term by term. It takes an edge whose pmf ratio
r(c) = b(c+1) / b(c) = (E - c) / (c + 1) * p / (1 - p) is below 1, takes
b(c) from Loader's saddle-point form (``_pmf``), and adds b(c), b(c+1), ...
in blocks of cumulative products of the ratios. The ratios fall with the
count, so after the terms up to b(m - 1) the rest of the tail is at most
b(m) / (1 - r(m - 1)). The edge is

- *dropped* once the partial sum S has S (1 - tol) > alpha;
- *kept* once (S + b(m) / (1 - r(m - 1))) (1 + tol) <= alpha,

with tol = ``_TOLERANCE`` = 2^-30. The rule cannot change a verdict either,
because the relative error of S and of the remainder is below 2^-32 (u =
2^-53 is the unit roundoff):

- b(c): Loader's form is exact up to its series' truncation (below u).
  Rounding E p and E (1 - p) moves log b(c) by at most 3 u |c - E p|, under
  2^-35 as |c - E p| < 2^16 is required. bd0's direct form rounds by at
  most about 4 u max(c, E) where it runs, and b(c) > 2^-960 confines it to
  c < 2^16 or E < 2^18, so under 2^-33. The rest rounds by far less.
- The cumulative products: each ratio carries at most 4 u and each product
  u, so the term reached at the cap of 2^16 terms is off by at most
  5 * 2^16 u < 2^-34.6; the sum of positive terms adds at most 2^16 u.
- The remainder: 1 - r(m - 1) is lowered by 2^-50, more than the ratio's
  rounding, so the remainder is never below its bound; as r(c) < 1 and
  blocks hold 128 terms, 1 - r(m - 1) stays above 2^-47 before that.
- Terms below 2^-1022 lose precision only in absolute terms, at most
  2^-1058 in all, which is below 2^-98 of any b(c) > 2^-960.

So tol leaves betainc itself a relative error of up to 2^-31 before a
summed verdict could differ from its reading. Every other edge stays open
for betainc: an edge below its mode (r(c) >= 1, reached only when
alpha >= 1/2), an edge with c = E, a b(c) of at most 2^-960, an edge with
|c - E p| >= 2^16, a universe whose total passes 2^53 (where betainc's
E - c + 1 need not be the binomial's integer), an edge still open after
2^16 terms, and an edge whose tail is within about tol of alpha.

Below alpha = 1/2, Gaussian and integer-scored tables alike leave few edges
to betainc or none, and a command with none never imports scipy. Once
counts pass about 1e16, betainc can read NaN near the mean; a close call it
leaves NaN raises ArithmeticError instead of being dropped.
"""

from __future__ import annotations

import math
from typing import Hashable, Mapping

import numpy as np

from .model import EdgeArrays, MultiLayerNetwork

DEFAULT_ALPHA = 0.05
DEFAULT_SCALE = 1000.0

# relative allowance for rounding, against settling an edge without betainc
_ROUNDING = 2.0**-40
# relative allowance against settling a close call by its summed tail, and
# the limits of that sum: edges per chunk, terms per block, terms per edge,
# the least b(c) and the largest |c - E p| it starts from (module docstring)
_TOLERANCE = 2.0**-30
_CHUNK = 1024
_BLOCK = 128
_CAP = 2**16
_FLOOR = 2.0**-960
_SPREAD = 2.0**16
# stirlerr(n) for n = 1..15, good to about 2^-46; index 0 is never read
_STIRLERR = np.array(
    [0.0]
    + [
        math.lgamma(n + 1) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
        for n in range(1, 16)
    ]
)


def _quantize(w: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Multiplicities round(w * scale) of one universe: which edges keep a
    positive count, those counts, and their exact total."""
    m = np.rint(w * scale)
    live = m > 0
    if m.max(initial=0.0) >= 2.0**63:
        raise OverflowError("total quantized weight exceeds 2**63 - 1")
    counts = m[live].astype(np.int64)
    # summed in two 32-bit halves, so the int64 sums cannot wrap
    total = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
    if total > 2**63 - 1:
        raise OverflowError("total quantized weight exceeds 2**63 - 1")
    return live, counts, total


def quantize_weights(
    edges: Mapping[tuple[Hashable, Hashable], float], scale: float = DEFAULT_SCALE
) -> dict[tuple[Hashable, Hashable], int]:
    """Integer edge multiplicities round(w * scale); zero-count edges dropped."""
    check_scale(scale)
    w = np.fromiter(edges.values(), np.float64, len(edges))
    if not np.isfinite(w).all():
        raise ValueError("cannot quantize a non-finite weight")
    live, counts, _ = _quantize(w, scale)
    kept = [edge for edge, keep in zip(edges, live.tolist()) if keep]
    return dict(zip(kept, counts.tolist()))


def edge_p_value(count, k_i, k_j, total):
    """Upper-tail probability Pr(multiplicity >= count) under the null model,
    for 1 <= count <= total. Accepts scalars or arrays.

    Computed through the regularized incomplete beta function, which equals
    the binomial survival sum exactly and stays stable for large E.
    """
    return _upper_tail(count, _null_probability(count, k_i, k_j, total), total)


def _null_probability(count, k_i, k_j, total):
    """The null model's p = k_i k_j / (2 E^2), after refusing a count outside
    [1, E]; a p above 1 is refused too."""
    if np.any((count < 1) | (count > total)):
        raise ValueError(f"count outside [1, {total}]")
    p = k_i * k_j / (2.0 * total * total)
    if np.any(p > 1.0):
        raise ValueError("null probability > 1; degrees violate the model")
    return p


def _upper_tail(count, p, total):
    """Pr(Binomial(total, p) >= count), as betainc(count, total - count + 1, p)."""
    # imported here, not at module level: scipy roughly doubles the start-up
    # of a command, and only edges that neither the bounds nor the summed
    # tails settle need it
    from scipy.special import betainc

    return betainc(count, total - count + 1.0, p)


def _stirlerr(n):
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) for integer-valued n >= 1: a
    table up to 15 and the asymptotic series, good to below 2^-53, above."""
    nn = n * n
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15).astype(np.intp)], series)


def _bd0(x, m):
    """Loader's bd0(x, m) = x log(x / m) + m - x: with v = (x - m) / (x + m),
    the series (x - m) v + 2 x (v^3 / 3 + v^5 / 5 + ...) while |v| < 0.1,
    truncated below 2^-53 of its sum, and the direct form beyond."""
    d = x - m
    v = d / (x + m)
    w = v * v
    odd = 1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9 + w * (1 / 11 + w * (1 / 13 + w / 15)))))
    return np.where(np.abs(v) < 0.1, d * v + 2.0 * x * v * w * odd, x * np.log(x / m) - d)


def _pmf(c, mean, total):
    """Pr(Binomial(total, p) = c) for 1 <= c < total, given the mean
    total p, in Loader's saddle-point form (Loader 2000, "Fast and accurate
    computation of binomial probabilities")."""
    rest = total - c
    exponent = (
        _stirlerr(total) - _stirlerr(c) - _stirlerr(rest)
        - _bd0(c, mean) - _bd0(rest, total - mean)
    )
    # log(2 pi c (E - c) / E)
    spread = math.log(2 * math.pi) + np.log(c) + np.log1p(-c / total)
    return np.exp(exponent - 0.5 * spread)


def _summed_verdicts(
    counts: np.ndarray, p: np.ndarray, total: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The verdicts of the close calls ``counts`` that their summed tails
    settle (module docstring), and a mask of those settled; an edge left
    open reads False."""
    keep = np.zeros(len(counts), dtype=bool)
    settled = np.zeros(len(counts), dtype=bool)
    if total > 2.0**53:
        return keep, settled
    mean = total * p
    ratio = (total - counts) * p / ((counts + 1.0) * (1.0 - p))
    live = np.flatnonzero((ratio < 1.0) & (np.abs(counts - mean) < _SPREAD) & (counts < total))
    first = _pmf(counts[live], mean[live], total)
    live, first = live[first > _FLOOR], first[first > _FLOOR]
    step = np.arange(_BLOCK, dtype=np.float64)
    # a chunk of edges at a time, so that one block's terms take at most 1 MB
    for start in range(0, len(live), _CHUNK):
        edges, term = live[start : start + _CHUNK], first[start : start + _CHUNK]
        m, tail = counts[edges], np.zeros(len(edges))
        for _ in range(_CAP // _BLOCK):
            # r(m), ..., r(m + B - 1), and b(m + 1), ..., b(m + B); r(E) = 0
            # ends the terms at the total
            block = m[:, None] + step
            r = (total - block) * p[edges, None] / ((block + 1.0) * (1.0 - p[edges, None]))
            run = term[:, None] * np.cumprod(r, axis=1)
            tail += term + run[:, :-1].sum(axis=1)
            term = run[:, -1]
            rest = term / ((1.0 - r[:, -1]) - 2.0**-50)
            dropped = tail * (1.0 - _TOLERANCE) > alpha
            kept = (tail + rest) * (1.0 + _TOLERANCE) <= alpha
            keep[edges[kept]] = True
            done = dropped | kept
            settled[edges[done]] = True
            edges, m, tail, term = (x[~done] for x in (edges, m + _BLOCK, tail, term))
            if not len(edges):
                break
    return keep, settled


def _endpoint_strengths(
    a: np.ndarray, b: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quantized strengths of each edge's two endpoints, summed exactly as
    int64 before conversion to float."""
    degrees = np.zeros(max(a.max(), b.max()) + 1, dtype=np.int64)
    np.add.at(degrees, a, counts)
    np.add.at(degrees, b, counts)
    k = degrees.astype(np.float64)
    return k[a], k[b]


def _bound_verdicts(
    counts: np.ndarray, p: np.ndarray, total: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The verdicts the two tail bounds settle (module docstring), and the
    indices of the edges they leave to betainc, whose verdicts read False."""
    # a drop needs alpha < 1/2 and c at most the mean, less the allowance
    undecided = (counts > p * total * (1.0 - _ROUNDING)) | (alpha >= 0.5)
    # E D(c/E || p) = c ln(c / mu) + (E - c) ln((E - c) / (E - mu)), over the
    # edges above their mean; each term is moved by the allowance against the keep
    above = np.flatnonzero(counts > p * total)
    c = counts[above]
    mu = p[above] * total
    near = c * np.log1p((c - mu) / mu) * (1.0 - _ROUNDING)
    # 0 * log(0) at c = E is 0; a term rounded to -inf elsewhere settles nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        far = (total - c) * np.log1p((c - mu) / (mu - total)) * (1.0 + _ROUNDING)
    far[c == total] = 0.0
    kept = above[near + far >= math.log(2.0) - math.log(alpha)]
    undecided[kept] = False
    verdict = np.zeros(len(counts), dtype=bool)
    verdict[kept] = True
    return verdict, np.flatnonzero(undecided)


def _significant(edges: EdgeArrays, alpha: float, scale: float) -> np.ndarray:
    """Mask of the edges of one universe whose p-value is at most ``alpha``."""
    live, counts, total = _quantize(edges.w, scale)
    # at level 1 every counted edge survives, as no tail is above 1; with no
    # count, no edge does
    if alpha == 1.0 or not total:
        return live
    k_a, k_b = _endpoint_strengths(edges.a[live], edges.b[live], counts)
    # rebound, so the int64 counts are freed before the bounds are taken
    counts = counts.astype(np.float64)
    total = float(total)
    p = _null_probability(counts, k_a, k_b, total)
    del k_a, k_b
    verdict, close = _bound_verdicts(counts, p, total, alpha)
    verdict[close], settled = _summed_verdicts(counts[close], p[close], total, alpha)
    close = close[~settled]
    # only the calls left open reach betainc: with none, scipy is never imported
    if len(close):
        tail = _upper_tail(counts[close], p[close], total)
        if np.isnan(tail).any():
            c = counts[close][np.isnan(tail)][0]
            raise ArithmeticError(f"betainc gave NaN at count {c:.0f}, universe total {total:.0f}")
        verdict[close] = tail <= alpha
    keep = np.zeros(len(live), dtype=bool)
    keep[live] = verdict
    return keep


def check_alpha(alpha: float) -> None:
    """Refuse a significance level outside (0, 1]; at 1 every counted edge survives."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"significance level (pruning.alpha) must be in (0, 1], got {alpha}")


def check_scale(scale: float) -> None:
    """Refuse a quantization scale that is not positive and finite."""
    if not 0.0 < scale < math.inf:
        raise ValueError(
            f"quantization scale must be positive and finite (pruning.quantization), got {scale}"
        )


def prune_network(
    mln: MultiLayerNetwork,
    alpha: float = DEFAULT_ALPHA,
    scale: float = DEFAULT_SCALE,
) -> MultiLayerNetwork:
    """Apply the filter to a whole network.

    Each layer's intra edges form one universe; each unordered layer pair's
    inter edges form another. Survivors keep their original (un-quantized)
    weights, and the node set is unchanged: nodes isolated by pruning stay.
    """
    check_alpha(alpha)
    check_scale(scale)
    kept = []
    for edges in (mln.intra, mln.inter):
        # one universe per set of endpoint layers: canonical order always puts
        # the same layer of a pair first, so the ordered pair names the set
        universe = mln.layer_of[edges.a] * len(mln.layers) + mln.layer_of[edges.b]
        keep = np.zeros(len(universe), dtype=bool)
        for u in np.flatnonzero(np.bincount(universe)).tolist():
            inside = universe == u
            # a universe holding every edge is passed whole, not copied
            part = edges if inside.all() else EdgeArrays(*(x[inside] for x in edges))
            keep[inside] = _significant(part, alpha, scale)
        kept.append(EdgeArrays(*(x[keep] for x in edges)))
    return MultiLayerNetwork(mln.layers, mln.vertices, *kept)
