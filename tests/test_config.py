import math
import sys

import numpy as np
import pytest

from bubblefield.config import (
    BadDimension,
    DuplicatePoints,
    TooFewPoints,
    build_configuration,
    interaction_matrix,
    kappa_closed_form,
)
from bubblefield.errors import InvalidInput, real, reals


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
    for points in ([], [[0, 0, 0, 0, 0]]):
        with pytest.raises(TooFewPoints):
            build_configuration(points)
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


def geometry_oracle(points, kappa):
    """(dist, m, pair) built as upper triangles, each pair once, and mirrored.

    The full-matrix build must repeat these bytes; pair is the (j, l), j < l,
    of the first smallest distance in row-major order.
    """
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    rows, cols = np.triu_indices(k, 1)
    tri = np.sqrt(np.sum((pts[rows] - pts[cols]) ** 2, axis=1))
    with np.errstate(divide="ignore"):  # duplicates: the pair is all that is read
        upper = kappa * tri**-3.0
    dist, m = np.zeros((k, k)), np.zeros((k, k))
    dist[rows, cols] = dist[cols, rows] = tri
    m[rows, cols] = m[cols, rows] = upper
    i = int(np.argmin(tri))
    return dist, m, (int(rows[i]), int(cols[i]))


def test_geometry_matches_upper_triangle_oracle_bit_for_bit(kappa):
    rng = np.random.default_rng(27)
    ref = np.random.default_rng(12)  # a cluster-solve configuration, moved rigidly
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    moved = ref.normal(size=(24, 5)) @ q + rng.normal(size=5)
    for pts in [rng.normal(size=(k, 5)) for k in (2, 3, 24, 50)] + [moved]:
        cfg = build_configuration(pts)
        dist, m, _ = geometry_oracle(pts, kappa)
        assert cfg.dist.tobytes() == dist.tobytes()
        assert interaction_matrix(cfg).m.tobytes() == m.tobytes()
        assert interaction_matrix(cfg, 2.5).m.tobytes() == geometry_oracle(pts, 2.5)[1].tobytes()


def test_duplicate_points_names_the_oracle_pair(kappa):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 5))
    pts[4] = pts[1]
    pts[3] = pts[5] = pts[2]  # zero distances at (1, 4), (2, 3), (2, 5) and (3, 5)
    near = rng.normal(size=(5, 5))
    near[4] = near[0] + 1e-14  # near-duplicates of different sizes
    near[3] = near[2] + 1e-15
    for points in (pts, pts[::-1], near):
        j, l = geometry_oracle(points, kappa)[2]
        with pytest.raises(DuplicatePoints, match=f"points {j} and {l} coincide"):
            build_configuration(points)


def test_points_too_far_apart_are_invalid_input():
    # the squared distance overflows from about 1e154 on: one InvalidInput naming
    # the first such pair, and no RuntimeWarning (warnings are errors here)
    with pytest.raises(InvalidInput, match="points 0 and 1 are too far apart"):
        build_configuration([[0, 0, 0, 0, 0], [1e200, 0, 0, 0, 0]])
    # each square is finite and only their sum overflows
    with pytest.raises(InvalidInput, match="points 0 and 1 are too far apart"):
        build_configuration([[0, 0, 0, 0, 0], [1e154, 1e154, 0, 0, 0]])
    far = [[0, 0, 0, 0, 0], [1e153, 0, 0, 0, 0], [0, 1e154, 0, 0, 0], [0, -1e154, 0, 0, 0]]
    with pytest.raises(InvalidInput, match="points 2 and 3 are too far apart"):
        build_configuration(far)
    assert np.isfinite(build_configuration(far[:3]).dist).all()


def test_geometry_is_read_only():
    points = np.random.default_rng(0).normal(size=(4, 5))
    cfg = build_configuration(points)
    for a in (cfg.points, cfg.dist, interaction_matrix(cfg).m):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 1] = 1.0
    # the configuration holds a copy: the caller's own array stays writable
    points[0, 1] = 1.0
    assert cfg.points[0, 1] != 1.0


def test_couplings_that_overflow_are_invalid_input():
    cfg = build_configuration([[0, 0, 0, 0, 0], [1e-10, 0, 0, 0, 0]])
    with pytest.raises(InvalidInput, match="couplings .* are not finite"):
        interaction_matrix(cfg, 1e300)  # 1e300 / 1e-30


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
    with pytest.raises(InvalidInput):
        interaction_matrix(cfg, math.inf)
    # a boolean is no kappa, and a subnormal one gives subnormal or zero couplings
    for bad in (True, np.True_, 5e-324, sys.float_info.min / 2.0):
        with pytest.raises(InvalidInput, match="kappa"):
            interaction_matrix(cfg, bad)
    assert interaction_matrix(cfg, sys.float_info.min).m[0, 1] == sys.float_info.min


def test_numbers_given_as_text_or_unconvertible_are_invalid_input():
    # float() reads "6", but text is the wrong type for a number; what float()
    # cannot read at all is invalid input too, never a ValueError or TypeError
    cfg = build_configuration([[0, 0, 0, 0, 0], [1, 0, 0, 0, 0]])
    for text in ("6", b"6", np.str_("6")):
        with pytest.raises(InvalidInput, match="kappa must be a number, not text"):
            interaction_matrix(cfg, text)
        with pytest.raises(InvalidInput, match="not text"):
            reals("points", [[0, 0, 0, 0, text], [1, 0, 0, 0, 0]])
    for bad in ("abc", [6.0], None, object(), 10**400, 1j):
        with pytest.raises(InvalidInput):
            real("kappa", bad)
    for bad in ("6", [[0, 1], [2]], [None], {"a": 1}, [10**400]):
        with pytest.raises(InvalidInput):
            reals("points", bad)
    assert real("kappa", np.float32(6.0)) == 6.0 and real("kappa", 6) == 6.0
    assert reals("points", [[1, 2], [3, 4.5]]).tolist() == [[1.0, 2.0], [3.0, 4.5]]
