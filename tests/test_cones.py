import numpy as np
import pytest

from hessgeo.cones import (
    PRESET_NAMES,
    _congruence_matrix,
    automorphism_samples,
    dilation_law,
    preset,
    radiant_law,
)
from hessgeo.errors import UnknownPreset
from hessgeo.tensors import lie_derivative_metric, pullback_metric


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        preset("nope")


def test_orthant2_metric_oracles():
    cone = preset("orthant2")
    p = np.array([1.0, 1.0])
    # g_can = Hess(-ln x1 - ln x2) = Id at (1, 1)
    can = cone.hessian_structure("can", samples=10)
    assert can.metric(p) == pytest.approx(np.eye(2))
    assert can.metric([2.0, 1.0]) == pytest.approx(np.diag([0.25, 1.0]))
    # g_con = Hess(1/(x1 x2)) = [[2, 1], [1, 2]] at (1, 1)
    con = cone.hessian_structure("con", samples=10)
    assert con.metric(p) == pytest.approx(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_characteristic_normalization():
    # phi at the "unit" base point of each cone preset
    assert preset("orthant2").phi_char([1.0, 1.0]) == pytest.approx(1.0)
    assert preset("orthant3").phi_char([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert preset("lorentz3").phi_char([np.sqrt(2.0), 0.0, 0.0]) == pytest.approx(
        2.0 ** -1.5
    )
    assert preset("spd2").phi_char([1.0, 0.0, 1.0]) == pytest.approx(1.0)


def test_congruence_matrix_matches_direct_action():
    rng = np.random.default_rng([3, 3])
    for _ in range(10):
        G = rng.normal(size=(2, 2))
        if abs(np.linalg.det(G)) < 0.2:
            continue
        a, b, c = rng.uniform(0.5, 2.0, 3)
        X = np.array([[a, b], [b, c]])
        Y = G.T @ X @ G
        acted = _congruence_matrix(G) @ np.array([a, b, c])
        assert acted == pytest.approx([Y[0, 0], Y[0, 1], Y[1, 1]])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_dilation_law(name):
    cone = preset(name)
    for q in (2.0, 0.5):
        entry = dilation_law(cone, q, samples=20)
        assert entry.passed, entry.residual


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_radiant_law(name):
    entry = radiant_law(preset(name), samples=20)
    assert entry.passed, entry.residual


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_full_group_preserves_canonical_metric(name):
    cone = preset(name)
    can = cone.hessian_structure("can", samples=10)
    for T in automorphism_samples(cone, 5, unimodular=False):
        for p in can.sample_points(10, salt=6):
            g = can.metric(p)
            assert pullback_metric(T, can.metric, p) == pytest.approx(
                g, rel=1e-9, abs=1e-9
            )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_unimodular_group_preserves_conical_metric(name):
    cone = preset(name)
    con = cone.hessian_structure("con", samples=10)
    for T in automorphism_samples(cone, 5, unimodular=True):
        assert abs(abs(np.linalg.det(T.A)) - 1.0) < 1e-10
        for p in con.sample_points(10, salt=6):
            g = con.metric(p)
            assert pullback_metric(T, con.metric, p) == pytest.approx(
                g, rel=1e-9, abs=1e-9
            )


def test_scaling_breaks_conical_metric():
    # the dilation x -> 2x is a cone automorphism but not unimodular: the
    # conical metric picks up the factor 2^(-n)
    cone = preset("spd2")
    con = cone.hessian_structure("con", samples=10)
    from hessgeo.tensors import AffineAutomorphism

    T = AffineAutomorphism.linear(2.0 * np.eye(3))
    p = con.sample_points(1, salt=8)[0]
    g = con.metric(p)
    defect = np.max(np.abs(pullback_metric(T, con.metric, p) - g)) / np.max(np.abs(g))
    assert defect > 0.5


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_selfsimilar_field(name):
    cone = preset(name)
    ss = cone.selfsimilar
    for p in ss.base.sample_points(10, salt=2):
        L = lie_derivative_metric(ss.metric, ss.xi, p)
        assert L == pytest.approx(2.0 * ss.metric(p), rel=1e-10, abs=1e-10)


def test_structures_built_once_per_preset():
    cone = preset("orthant2", seed=7)
    assert cone.seed == 7
    assert cone.can is cone.can and cone.con is cone.con
    assert cone.selfsimilar.base is cone.con
    assert cone.con.seed == 7
    # a k-point draw is the first k points of a longer draw, so suites that
    # ask for fewer samples than the structure's default see the same points
    np.testing.assert_array_equal(cone.con.sample_points(5), cone.con.sample_points(50)[:5])


def test_spd2_radiant_lie_derivative_oracle():
    # g_con is homogeneous of degree -(n + 2); with the Jacobian terms the Lie
    # derivative along rho is exactly -n g_con = -3 g_con
    cone = preset("spd2")
    con = cone.hessian_structure("con", samples=10)
    p = np.array([1.2, 0.1, 0.9])
    L = lie_derivative_metric(con.metric, cone.rho, p)
    assert L == pytest.approx(-3.0 * con.metric(p), rel=1e-12)
