import numpy as np
import pytest

from hessgeo.errors import (
    ConfigError,
    EmptyDomainSample,
    NonpositiveNorm,
    NotPositiveDefinite,
)
from hessgeo.cones import preset
from hessgeo.expressions import parse_expression
from hessgeo.structures import (
    Domain,
    HessianStructure,
    SelfsimilarHessianStructure,
    check_hessian,
    check_selfsimilar,
    make_hessian_structure,
    norm_gradient,
    norm_squared,
)
from hessgeo.tensors import VectorFieldSpec, fd_tensor_derivative


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


@pytest.mark.parametrize("potential", ["x1^2", "x1^2-1e-12*x2^2"])
def test_singular_metric_cannot_pass_the_hessian_suite(potential):
    # Hess = diag(2, 0) and diag(2, -2e-12): the suite reported them as passes
    # (residual 0 and 2e-12 < 1e-10) while validation rejected them
    s = HessianStructure(
        name="singular",
        dim=2,
        potential=parse_expression(potential, ["x1", "x2"]),
        domain=Domain((), np.array([[0.5, 1.5], [0.5, 1.5]])),
    )
    with pytest.raises(NotPositiveDefinite, match="Hess\\(singular\\) not positive definite"):
        check_hessian(s)


def test_selfsimilar_validation_and_norm():
    s = conical_structure()
    xi = VectorFieldSpec.from_affine(-np.eye(2))
    ss = SelfsimilarHessianStructure(s, xi).validate()
    p = np.array([1.0, 1.0])
    # g_con(1,1) = [[2, 1], [1, 2]], xi = (-1, -1): norm = 6
    assert norm_squared(ss, p) == pytest.approx(6.0)
    fd = fd_tensor_derivative(lambda q: norm_squared(ss, q, check=False), p)
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", 2.7, "seed must be an integer, got 2.7"),
        ("seed", -1, "seed must be at least 0, got -1"),
        ("samples", True, "samples must be an integer, got True"),
        ("samples", 0, "samples must be at least 1, got 0"),
    ],
)
def test_make_hessian_structure_takes_integer_seed_and_samples(key, value, message):
    # `int()` would build a structure at seed 2, or with 1 sample, without a word
    config = {"dim": 2, "potential": "x1^2+x2^2", "box": [[0, 1], [0, 1]]}
    with pytest.raises(ConfigError, match=message):
        make_hessian_structure({**config, key: value})


# -- sampling and the first failing sample: literals pinned from the point-by-point code


@pytest.mark.parametrize(
    "name, first_rows, total",
    [
        (
            "orthant2",
            [[1.660934072833945, 1.1583176596280784], [1.7878968798670738, 1.546052043589046]],
            248.16086630088876,
        ),
        (
            "lorentz3",
            [
                [2.2739560485559633, -0.08557018434712671, 0.5020370878759355],
                [2.197368029059364, -0.5681517129572906, 0.6658712922914582],
            ],
            194.2210434853651,
        ),
        (
            "spd2",
            [
                [1.728747258267156, -0.06112156024794768, 1.830317503893659],
                [1.6368416348712367, -0.40582265211235047, 1.970746821964107],
            ],
            275.66255178585425,
        ),
    ],
)
def test_sampling_draws_the_pinned_points(name, first_rows, total):
    points = preset(name).can.sample_points()
    assert points.shape == (100, len(first_rows[0]))
    assert points[:2].tolist() == first_rows
    assert float(points.sum()) == total


def test_sampling_where_an_inequality_raises_keeps_the_other_points():
    # ln(x1) raises at the draws with x1 <= 0: they are outside, and the
    # draws after them are decided as before
    config = {"dim": 2, "potential": "x1^2+x2^2", "domain": ["ln(x1)"], "samples": 20}
    points = make_hessian_structure({**config, "box": [[-1, 3], [-1, 1]]}).sample_points()
    assert points.shape == (20, 2)
    assert points[:2].tolist() == [
        [2.0958241942238534, -0.12224312049589536],
        [2.43439167964553, 0.3947360581187278],
    ]
    assert float(points.sum()) == 40.39988979232336
    # over x1 in [-1, 1] no draw satisfies ln(x1) > 0.001
    with pytest.raises(EmptyDomainSample, match="only 0/20 domain points .* 10000 draws in a row"):
        make_hessian_structure({**config, "box": [[-1, 1], [-1, 1]]})


def test_sampling_gives_up_after_the_same_misses_in_a_row():
    variables = ["x1", "x2"]
    empty = Domain((parse_expression("-1-x1^2", variables),), np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(EmptyDomainSample) as error:
        empty.sample(5, np.random.default_rng(0))
    assert str(error.value) == (
        "only 0/5 domain points found in the bounding box: 10000 draws in a row missed the domain"
    )
    strip = Domain((parse_expression("0.02-(x1-0.5)^2", variables),), empty.box)
    with pytest.raises(EmptyDomainSample, match=r"^only 12/50 domain points .*: 6 draws in a row"):
        strip.sample(50, np.random.default_rng([42, 0]), max_tries=6)


def cubic_structure(potential="x1^3+x2^2"):
    """Hess(x1^3 + x2^2) = diag(6 x1, 2): indefinite at x1 < 0, first at the
    tenth sample; the first two have x1 > 0."""
    return HessianStructure(
        name="cubic",
        dim=2,
        potential=parse_expression(potential, ["x1", "x2"]),
        domain=Domain((), np.array([[-0.5, 1.0], [0.5, 1.5]])),
        seed=4,
    )


def test_batched_checks_name_the_first_failing_sample():
    s = cubic_structure()
    assert np.all(s.sample_points()[:9, 0] > 0)
    with pytest.raises(NotPositiveDefinite) as error:
        check_hessian(s)
    assert str(error.value) == "Hess(cubic) not positive definite at [-0.23346112  1.10885162]"
    # g(xi, xi) = 6 x1 for the constant field xi = (1, 0)
    xi = VectorFieldSpec.from_affine(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(NonpositiveNorm) as error:
        check_selfsimilar(s, xi)
    assert str(error.value) == "g(xi, xi) = -1.40076672814217 at [-0.23346112  1.10885162]"


def test_a_later_domain_error_does_not_hide_an_earlier_failing_sample():
    # ln(x2 - 0.55) raises first at the 26th sample (x2 = 0.542), after the
    # tenth, where the Hessian and g(xi, xi) = 6 x1 are already negative
    s = cubic_structure("x1^3+x2^2-ln(x2-0.55)")
    assert np.all(s.sample_points()[:25, 1] > 0.55) and s.sample_points()[25, 1] < 0.55
    with pytest.raises(NotPositiveDefinite) as error:
        check_hessian(s)
    assert str(error.value) == "Hess(cubic) not positive definite at [-0.23346112  1.10885162]"
    xi = VectorFieldSpec.from_affine(np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(NonpositiveNorm, match=r"^g\(xi, xi\) = -1\.4007667281421\d* at \[-0\.23"):
        check_selfsimilar(s, xi)
