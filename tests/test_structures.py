import numpy as np
import pytest

from hessgeo.errors import (
    ConfigError,
    EmptyDomainSample,
    NonpositiveNorm,
    NotPositiveDefinite,
)
from hessgeo.expressions import parse_expression
from hessgeo.structures import (
    Domain,
    HessianStructure,
    SelfsimilarHessianStructure,
    check_selfsimilar,
    make_hessian_structure,
    norm_gradient,
    norm_squared,
)
from hessgeo.tensors import VectorFieldSpec, finite_differences


def orthant_domain():
    variables = ["x1", "x2"]
    return Domain(
        tuple(parse_expression(v, variables) for v in variables),
        np.array([[0.5, 2.0], [0.5, 2.0]]),
    )


def conical_structure(samples=30):
    return HessianStructure(
        name="orthant_conical",
        dim=2,
        potential=parse_expression("1/(x1*x2)", ["x1", "x2"]),
        domain=orthant_domain(),
        samples=samples,
    )


def test_domain_sampling_is_deterministic():
    d = orthant_domain()
    rng1 = np.random.default_rng([42, 0])
    rng2 = np.random.default_rng([42, 0])
    a = d.sample(10, rng1)
    b = d.sample(10, rng2)
    assert a == pytest.approx(b)
    assert all(d.contains(p) for p in a)


def test_domain_rejection_failure():
    variables = ["x1"]
    d = Domain(
        (parse_expression("-1-x1^2", variables),), np.array([[0.0, 1.0]])
    )
    with pytest.raises(EmptyDomainSample):
        d.sample(5, np.random.default_rng(0), max_tries=200)


def test_domain_sampling_caps_misses_in_a_row_not_draws():
    # the box lies inside the domain: more points than max_tries draws, and the
    # same draws as a shorter run
    d = orthant_domain()
    many = d.sample(10_001, np.random.default_rng([42, 0]))
    assert many.shape == (10_001, 2)
    assert np.array_equal(many[:100], d.sample(100, np.random.default_rng([42, 0])))


def test_validate_positive_definite():
    s = conical_structure()
    assert s.validate() is s
    bad = HessianStructure(
        name="saddle",
        dim=2,
        potential=parse_expression("x1^2-x2^2", ["x1", "x2"]),
        domain=orthant_domain(),
    )
    with pytest.raises(NotPositiveDefinite):
        bad.validate()


def test_selfsimilar_validation_and_norm():
    s = conical_structure()
    xi = VectorFieldSpec.from_affine(-np.eye(2))
    ss = SelfsimilarHessianStructure(s, xi).validate()
    p = np.array([1.0, 1.0])
    # g_con(1,1) = [[2, 1], [1, 2]], xi = (-1, -1): norm = 6
    assert norm_squared(ss, p) == pytest.approx(6.0)
    with finite_differences():
        fd = norm_gradient(ss, p)
    assert norm_gradient(ss, p) == pytest.approx(fd, abs=1e-6)


def test_selfsimilar_rejects_wrong_field():
    s = conical_structure()
    xi = VectorFieldSpec.from_affine(np.eye(2))
    with pytest.raises(ConfigError):
        SelfsimilarHessianStructure(s, xi).validate()


def test_nonpositive_norm_detected():
    s = conical_structure()
    # a field vanishing at an interior point has nonpositive norm there
    xi = VectorFieldSpec.from_affine(-np.eye(2), np.array([1.0, 1.0]))
    ss = SelfsimilarHessianStructure(s, xi)
    with pytest.raises(NonpositiveNorm):
        norm_squared(ss, np.array([1.0, 1.0]))


def test_check_selfsimilar_residual():
    s = conical_structure()
    xi = VectorFieldSpec.from_affine(-np.eye(2))
    entry = check_selfsimilar(s, xi, samples=20)
    assert entry.check_id == "selfsimilar_metric"
    assert entry.passed
    assert entry.residual < 1e-10


def test_bad_configs():
    with pytest.raises(ConfigError):
        make_hessian_structure({"dim": 2, "box": [[0, 1], [0, 1]]})
    with pytest.raises(ConfigError):
        make_hessian_structure(
            {"dim": 2, "potential": "x1^2+x2^2", "box": [[0, 1]]}
        )
