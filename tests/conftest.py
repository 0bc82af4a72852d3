"""Shared helpers: random piecewise-affine instances with exact kinks.

Expressions are built around a dyadic anchor point so that branch ties hold
exactly in double precision: leaf coefficients are small integers, anchor
coordinates are quarters, and leaf values at the anchor are drawn from a
small dyadic pool with deliberate collisions.  That makes tolerance-zero
activity analysis meaningful on randomized inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from nonsmooth.expr import Abs, Affine, Max, Min, Scale, Sum
from nonsmooth.rng import make_rng

VALUE_POOL = (-1.0, -0.5, 0.0, 0.0, 0.5, 1.0)  # collisions make kinks likely


def random_pa_instance(rng: np.random.Generator, dim: int, max_pieces: int = 6):
    """(expression, anchor point): a random PA tree kinked at the anchor."""
    x_star = rng.integers(-8, 9, size=dim) / 4.0
    n_leaves = int(rng.integers(2, max_pieces + 1))
    leaves = []
    for _ in range(n_leaves):
        a = rng.integers(-3, 4, size=dim).astype(float)
        if not a.any():
            a[int(rng.integers(dim))] = 1.0
        v = float(rng.choice(VALUE_POOL))
        b = v - float(a @ x_star)  # dyadic arithmetic: exact in doubles
        leaves.append(Affine(tuple(a), b))
    nodes: list = leaves
    while len(nodes) > 1:
        op = rng.integers(5)
        if op in (0, 1) and len(nodes) >= 2:  # max / min of 2-3 nodes
            k = min(len(nodes), int(rng.integers(2, 4)))
            picks = [nodes.pop() for _ in range(k)]
            nodes.append(Max(tuple(picks)) if op == 0 else Min(tuple(picks)))
        elif op == 2:
            nodes.append(Abs(nodes.pop()))
        elif op == 3:
            c = float(rng.choice((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)))
            nodes.append(Scale(c, nodes.pop()))
        else:
            if len(nodes) >= 2:
                a, b = nodes.pop(), nodes.pop()
                nodes.append(Sum((a, b)))
            else:
                nodes.append(Abs(nodes.pop()))
        rng.shuffle(nodes)
    return nodes[0], x_star


def random_convex_pa(rng: np.random.Generator, dim: int, pieces: int = 4):
    """(expression, anchor): max of affine pieces, tied at the anchor."""
    x_star = rng.integers(-8, 9, size=dim) / 4.0
    leaves = []
    for _ in range(pieces):
        a = rng.integers(-3, 4, size=dim).astype(float)
        v = float(rng.choice(VALUE_POOL))
        leaves.append(Affine(tuple(a), v - float(a @ x_star)))
    return Max(tuple(leaves)), x_star


def sample_set_points(su, rng: np.random.Generator, per_comp: int = 4) -> np.ndarray:
    """Vertices plus random convex combinations from each union component."""
    pts = []
    for comp in su.components:
        V = comp.vertices
        pts.append(V)
        if V.shape[0] > 1:
            w = rng.dirichlet(np.ones(V.shape[0]), size=per_comp)
            pts.append(w @ V)
    return np.vstack(pts)


@pytest.fixture
def rng():
    return make_rng(20240)


def criterion7_trial(N: int, trial: int):
    """The dataset and start of one trial of the LSPAR experiment (root seed 0)."""
    from nonsmooth.experiments import LSPAR_TRUE_W, gen_lspar_data
    from nonsmooth.rng import stream_key

    ds = gen_lspar_data(N, 0.1, stream_key(0, N, trial, 11))
    return ds, make_rng(0, N, trial, 22).standard_normal(LSPAR_TRUE_W.shape)


def checked_mm_iterates(monkeypatch, ds, W0):
    """mm_lspar's (trace, certificate) and the W of every d-stationarity
    check it ran."""
    from nonsmooth import solvers

    check = solvers.lspar_d_stationarity_check
    seen = []

    def recording(dataset, W, **kwargs):
        seen.append(np.array(W, copy=True))
        return check(dataset, W, **kwargs)

    monkeypatch.setattr(solvers, "lspar_d_stationarity_check", recording)
    tr, cert = solvers.mm_lspar(ds, W0)
    monkeypatch.undo()
    return tr, cert, seen
