"""Shared builders for small test problems.

Most tests run on meshes with a few dozen nodes; the handful that pin
behavior of the default configuration build it explicitly.
"""

import numpy as np
import pytest
import scipy.linalg.lapack

from hessmc import pipeline
from hessmc.fem import Mesh1D, assemble_mass, bidiagonal_solve, interpolation_matrix
from hessmc.lowrank import build_lowrank
from hessmc.models import (
    ExpReaction1D,
    LinearGaussianModel,
    observation_points,
    synthesize_data,
)
from hessmc.prior import build_prior


def white_noise(space, rng, size=None):
    """R^{-1} n with n ~ N(0, I), R the mass matrix's whitening factor: the
    draw has Euclidean covariance M^{-1}, the identity in the M inner
    product. With ``size``, one draw per row."""
    shape = space.n if size is None else (space.n, size)
    out = bidiagonal_solve(space.R, rng.standard_normal(shape))
    return out if size is None else out.T


def build_one(model, prior, m, r, l, rng):
    """``build_lowrank`` at one point (the batch of one); a failure raises."""
    (lrh,) = build_lowrank([model], prior, [m], r, l, [rng])
    if isinstance(lrh, Exception):
        raise lrh
    return lrh


def failing_dstemr(fail_at):
    """A stand-in for the ``dstemr`` that ``lowrank`` calls: LAPACK's, but
    reporting info = 2 (its eigenvector stage failed) at the calls
    numbered in ``fail_at`` (from 0)."""
    calls = []

    def dstemr(*args, **kwargs):
        m, w, z, info = scipy.linalg.lapack.dstemr(*args, **kwargs)
        calls.append(None)
        return m, w, z, 2 if len(calls) - 1 in fail_at else info
    return dstemr


def nan_dpttrs(n, fail_at):
    """A stand-in for the ``dpttrs`` that ``fem`` calls: LAPACK's, but at
    each call numbered in ``fail_at`` (from 0) the solution's block
    ``fail_at[call]`` of n unknowns gets a nan, as a solve that overflows
    in that block would leave it."""
    calls = []

    def dpttrs(*args, **kwargs):
        x, info = scipy.linalg.lapack.dpttrs(*args, **kwargs)
        block = fail_at.get(len(calls))
        calls.append(None)
        if block is not None:
            x = x.copy()
            x[block * n] = np.nan
        return x, info
    return dpttrs


def make_small_problem(n=35, q=6, kind="exp_reaction", a=1e-2, b=1e2,
                       noise_rel=0.02, seed=0, length=1.0):
    """Small synthetic inverse problem used across the test modules."""
    mesh = Mesh1D.uniform(n, length)
    space = assemble_mass(mesh)
    prior = build_prior(mesh, a, b, mean=1.0, space=space)
    pts = observation_points(mesh, q, region="right_half")
    if kind == "exp_reaction":
        model = ExpReaction1D(mesh, space, source_constant=1.0)
    else:
        model = LinearGaussianModel(mesh, space, interpolation_matrix(mesh, pts))
    rng = np.random.default_rng([seed, 101])
    m_true = 1.0 + np.sin(2.0 * np.pi * mesh.node_coords / length)
    synthesize_data(model, m_true, noise_rel, rng, points=pts)
    return mesh, space, prior, model, m_true


@pytest.fixture
def chain_reads(monkeypatch):
    """The path of every chain file the pipeline reads while the test runs."""
    paths, read = [], pipeline.read_chain

    def counted(path):
        paths.append(path)
        return read(path)

    monkeypatch.setattr(pipeline, "read_chain", counted)
    return paths


@pytest.fixture
def small_exp_problem():
    return make_small_problem()


@pytest.fixture
def small_linear_problem():
    return make_small_problem(kind="linear")
