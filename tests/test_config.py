import math

import numpy as np
import pytest

from bubblefield.config import (
    BadDimension,
    DuplicatePoints,
    TooFewPoints,
    build_configuration,
    interaction_matrix,
    kappa_closed_form,
    load_configuration,
)
from bubblefield.errors import InvalidInput


def test_kappa_closed_form_value():
    k = kappa_closed_form()
    assert k > 0 and math.isfinite(k)
    assert k == 128.0 * math.sqrt(15.0) / (7.0 * math.pi)
    # 12-digit decimal pinned from extended-precision evaluation
    assert abs(k - 22.5427910971) < 5e-11


def test_two_point_configuration():
    cfg = build_configuration([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
    assert cfg.K == 2
    assert cfg.dist[0, 1] == 1.0
    assert cfg.dist[1, 0] == 1.0
    assert cfg.dist[0, 0] == 0.0


def test_distance_matrix_matches_norms():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(6, 5))
    cfg = build_configuration(pts)
    for j in range(6):
        for l in range(6):
            d = np.linalg.norm(pts[j] - pts[l])
            assert abs(cfg.dist[j, l] - d) <= 1e-14 * (1.0 + d)
    assert np.array_equal(cfg.dist, cfg.dist.T)


def test_rejects_degenerate_inputs():
    with pytest.raises(TooFewPoints):
        build_configuration([[0, 0, 0, 0, 0]])
    with pytest.raises(BadDimension):
        build_configuration([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(BadDimension):
        build_configuration([[0, 0, 0, 0, np.nan], [1, 0, 0, 0, 0]])
    with pytest.raises(DuplicatePoints):
        build_configuration([[1, 2, 3, 4, 5], [1, 2, 3, 4, 5]])
    # near-duplicate below the relative threshold
    with pytest.raises(DuplicatePoints):
        build_configuration([[1e6, 0, 0, 0, 0], [1e6 + 1e-8, 0, 0, 0, 0]])


def test_interaction_matrix_closed_cases(kappa):
    cfg = build_configuration([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
    m = interaction_matrix(cfg)
    assert m.kappa == kappa
    assert m.m[0, 1] == kappa
    assert m.m[0, 0] == 0.0 and m.m[1, 1] == 0.0

    cfg2 = build_configuration([[0, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
    m2 = interaction_matrix(cfg2)
    assert abs(m2.m[0, 1] - kappa / 8.0) <= 1e-16 * kappa


def test_interaction_matrix_exact_symmetry():
    rng = np.random.default_rng(5)
    cfg = build_configuration(rng.normal(size=(7, 5)))
    m = interaction_matrix(cfg, 2.5)
    assert np.array_equal(m.m, m.m.T)
    assert np.all(np.diag(m.m) == 0.0)
    off = m.m[~np.eye(7, dtype=bool)]
    assert np.all(off > 0)


@pytest.mark.parametrize("K", [3, 50])
def test_geometry_matches_per_pair_reference(K):
    # the vectorised geometry against one norm, and one power of the cached
    # distance, per pair: not bit-identical, but within 4 ulp, and exactly symmetric
    rng = np.random.default_rng(K)
    pts = rng.normal(size=(K, 5))
    cfg = build_configuration(pts)
    m = interaction_matrix(cfg, 2.5)
    assert np.array_equal(cfg.dist, cfg.dist.T) and np.array_equal(m.m, m.m.T)
    assert np.all(np.diag(cfg.dist) == 0.0) and np.all(np.diag(m.m) == 0.0)
    for j in range(K):
        for l in range(j + 1, K):
            d = np.linalg.norm(pts[j] - pts[l])
            assert abs(cfg.dist[j, l] - d) <= 4 * np.spacing(d)
            v = 2.5 * cfg.dist[j, l] ** -3.0
            assert abs(m.m[j, l] - v) <= 4 * np.spacing(v)


def test_rigid_motion_invariance():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(5, 5))
    m0 = interaction_matrix(build_configuration(pts), 1.0).m
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        shift = rng.normal(size=5)
        moved = pts @ q.T + shift
        m1 = interaction_matrix(build_configuration(moved), 1.0).m
        mask = ~np.eye(5, dtype=bool)
        assert np.max(np.abs(m1[mask] - m0[mask]) / m0[mask]) <= 1e-12


def test_scaling_law():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 5))
    m1 = interaction_matrix(build_configuration(pts), 1.0).m
    m2 = interaction_matrix(build_configuration(2.0 * pts), 1.0).m
    mask = ~np.eye(4, dtype=bool)
    assert np.max(np.abs(m2[mask] * 8.0 - m1[mask]) / m1[mask]) <= 1e-12


def test_kappa_parameter_validation(k2_matrix):
    cfg = build_configuration([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
    with pytest.raises(InvalidInput):
        interaction_matrix(cfg, 0.0)
    with pytest.raises(InvalidInput):
        interaction_matrix(cfg, -1.0)


def test_json_ingestion(kappa):
    cfg, k = load_configuration('{"points": [[0,0,0,0,0],[1,0,0,0,0]]}')
    assert k == kappa and cfg.K == 2
    cfg, k = load_configuration('{"points": [[0,0,0,0,0],[1,0,0,0,0]], "kappa": 6.0}')
    assert k == 6.0
    with pytest.raises(InvalidInput):
        load_configuration('{"kappa": 1.0}')
    with pytest.raises(InvalidInput):
        load_configuration('{"points": [[0,0,0,0,0],[1,0,0,0,0]], "kappa": -3}')
