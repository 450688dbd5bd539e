"""Command line interface: `hessgeo list`, `hessgeo check`, `hessgeo eval`.

`check GEOMETRY` runs one or more verification suites on a built-in geometry
or a JSON config file and prints a deterministic report (text or JSON).
Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, NamedTuple

import numpy as np

from . import cones as cones_mod
from . import cmap as cmap_mod
from . import rmap as rmap_mod
from .errors import ConfigError, DomainError, HessgeoError, UnknownPreset
from .report import CheckResult, VerificationReport, __version__, measured
from .structures import (
    Domain,
    HessianStructure,
    SelfsimilarHessianStructure,
    check_hessian,
    check_selfsimilar,
    conformal_rescaling,
    field_from_config,
    make_hessian_structure,
    require_count,
)
from .expressions import parse_expression
from .tensors import (
    TensorField,
    VectorFieldSpec,
    bundle_sample_points,
    exterior_derivative_2form,
    fd_tensor_derivative,
    invariance_defect,
    is_positive_definite,
    max_abs,
)

PRESETS = cones_mod.PRESET_NAMES + cmap_mod.SK_PRESET_NAMES
COUNTEREXAMPLES = ("noncone_counterexample",)
GEOMETRY_NAMES = PRESETS + COUNTEREXAMPLES

SUITE_NAMES = ("hessian", "rmap", "selfsimilar", "cone", "cmap", "conformal", "all")
# over seeds 1-50 and 42 on every preset and golden config, an unmutated audit reads at most 7.8e-9
# (sk_conic, whose values carry the Newton tolerance); the tolerance leaves two decades above that
FD_AUDIT_TOL = 1e-6

NONCONE_POINT = np.array([0.5, 0.75, 0.3, -0.2])


# -- geometry resolution ---------------------------------------------------


def noncone_structure(seed=42, samples=100) -> HessianStructure:
    """Explicit non-Hessian metric diag(1, 1 + x1^2): the tangent-bundle
    2-form is not closed, so the chart fails to be a Kahler lift."""
    variables = ["x1", "x2"]
    comps = [
        [parse_expression("1", variables), parse_expression("0", variables)],
        [parse_expression("0", variables), parse_expression("1+x1^2", variables)],
    ]
    return HessianStructure(
        name="noncone_counterexample",
        dim=2,
        potential=None,
        domain=Domain((), np.array([[0.25, 1.0], [0.25, 1.0]])),
        seed=seed,
        samples=samples,
        metric=TensorField.from_components(comps),
    )


def resolve_geometry(name, seed, samples):
    """Returns (kind, object); the kind, a key of KINDS, fixes the suites
    and tensors the geometry offers.  The seed and the sample count are
    checked here, where they enter; a config's own, by its constructor."""
    require_count("--seed", seed, 0)
    require_count("--samples", samples, 1)
    if name in cones_mod.PRESET_NAMES:
        return "cone", cones_mod.preset(name, seed)
    if name in cmap_mod.SK_PRESET_NAMES:
        return _special_kahler(cmap_mod.special_kahler_preset(name, seed=seed, samples=samples))
    if name == "noncone_counterexample":
        return "noncone", noncone_structure(seed=seed, samples=samples)
    if name.endswith(".json"):
        config = {"seed": seed, "samples": samples, **_read_config(name)}
        if "F" in config:
            return _special_kahler(cmap_mod.prepotential_from_config(config))
        if "I" in config:
            return _special_kahler(cmap_mod.special_kahler_from_config(config))
        structure = make_hessian_structure(config)
        xi = field_from_config(config, structure)
        if xi is None:
            return "hessian", structure
        return "selfsimilar", SelfsimilarHessianStructure(structure, xi).validate()
    raise UnknownPreset(name)


def _read_config(path):
    with open(path) as handle:
        try:
            config = json.load(handle)
        except ValueError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path} must hold a JSON object, not a {type(config).__name__}")
    return config


def _special_kahler(sk):
    """(kind, sk): "sk_homothetic" when the Euler field xi(q) = q validates as
    homothetic, as for a prepotential homogeneous of degree 2; else "sk"."""
    try:
        _euler_selfsimilar(sk).validate()
    except ConfigError:
        return "sk", sk
    return "sk_homothetic", sk


# -- generic suites --------------------------------------------------------


def rmap_suite(structure: HessianStructure, samples=None) -> List[CheckResult]:
    lift = rmap_mod.build_kahler_lift(structure)
    entries = [rmap_mod.check_kahler(lift, samples)]
    if structure.potential is not None:
        entries.append(rmap_mod.check_potential_identity(lift, samples))
    return entries


def _noncone_rmap(structure: HessianStructure, samples=None) -> List[CheckResult]:
    dw = exterior_derivative_2form(rmap_mod.build_kahler_lift(structure).omega, NONCONE_POINT[None])
    return rmap_suite(structure, samples) + [
        measured(
            "noncone_exterior_value",
            "max |d(omega)| at the marked point equals 1 exactly",
            1e-3,
            np.abs(max_abs(dw, 3) - 1.0),
        )
    ]


def _assumed_hypotheses():
    return CheckResult(
        "hypothesis_completeness_transitivity",
        "completeness of xi and simple transitivity on the unit level set of "
        "g(xi, xi) are hypotheses, recorded but not checked",
        0.0,
        0.0,
        0,
        status="assumed",
    )


def selfsimilar_suite(structure: SelfsimilarHessianStructure, samples=None) -> List[CheckResult]:
    return [
        check_selfsimilar(structure.base, structure.xi, samples),
        rmap_mod.check_lemma_xi_items(structure, samples),
    ]


def cone_suite(cone: cones_mod.ConePreset, samples=None) -> List[CheckResult]:
    samples = samples or 50
    entries = [cones_mod.dilation_law(cone, q, samples=samples) for q in (2.0, 0.5, 3.0)]
    entries.append(cones_mod.radiant_law(cone, samples=samples))
    full = cones_mod.automorphism_samples(cone, 10, unimodular=False)
    unim = cones_mod.automorphism_samples(cone, 10, unimodular=True)
    # negative control phrased as an exact value: under x -> 2x the relative
    # defect of g_con equals 1 - 2^(-n), comfortably above 0.5, at every point
    scaled = invariance_defect(
        [cones_mod.AffineAutomorphism.linear(2.0 * np.eye(cone.dim))],
        cone.con.sample_points(20, salt=4),
        (cone.con.metric,),
    )
    return entries + [
        measured(
            "cone_full_invariance",
            "g_can is invariant under the sampled full automorphism group",
            1e-8,
            invariance_defect(full, cone.can.sample_points(20, salt=2), (cone.can.metric,)),
        ),
        measured(
            "cone_unimodular_invariance",
            "g_con is invariant under the sampled unimodular automorphisms",
            1e-8,
            invariance_defect(unim, cone.con.sample_points(20, salt=2), (cone.con.metric,)),
        ),
        measured(
            "cone_negative_control",
            "non-unimodular scaling defect of g_con equals 1 - 2^(-n) > 0.5 exactly",
            1e-8,
            np.abs(scaled - (1.0 - 2.0 ** (-cone.dim))),
        ),
    ]


def cone_conformal_suite(cone: cones_mod.ConePreset, samples=None) -> List[CheckResult]:
    unim = cones_mod.automorphism_samples(cone, 5, unimodular=True)
    rng = np.random.default_rng([cone.seed, 23])
    shifts = [rng.uniform(-1.0, 1.0, cone.dim) for _ in unim]
    entries = rmap_mod.check_conformal_invariance(
        cone.selfsimilar, samples or 50, automorphisms=unim, fiber_shifts=shifts
    )
    # orbit reachability from the sampled generators only: informational,
    # transitivity itself is not decidable from samples
    points = cone.con.sample_points(10, salt=13)
    gaps = np.array([np.linalg.norm(T(points)[:, None] - points, axis=-1) for T in unim]).min(0)
    gaps[np.isclose(points[None], points[:, None]).all(axis=-1)] = np.inf  # q close to p
    reach = measured(
        "orbit_reachability",
        "closest approach between sampled point pairs under one step of "
        "the sampled unimodular generators",
        0.0,
        np.min(gaps, axis=1),
        status="informational",
    )
    return entries + [reach, _assumed_hypotheses()]


def cmap_suite(sk, samples=None) -> List[CheckResult]:
    entries = cmap_mod.check_special_kahler_axioms(sk, samples)
    entries.extend(cmap_mod.check_hyperkahler(sk, samples))
    if sk.isometries:
        rng = np.random.default_rng([sk.seed, 29])
        shifts = [rng.uniform(-1.0, 1.0, sk.dim) for _ in range(3)]
        entries.append(cmap_mod.check_invariance_psi_hat(sk, sk.isometries, shifts, samples))
    return entries


def _euler_selfsimilar(sk):
    """sk with the Euler field xi(q) = q as its homothetic field."""
    return SelfsimilarHessianStructure(sk, VectorFieldSpec.from_affine(np.eye(sk.dim)))


def sk_conformal_suite(sk, samples=None) -> List[CheckResult]:
    entries = cmap_mod.check_conformal_hyperkahler(_euler_selfsimilar(sk), samples)
    entries.append(_assumed_hypotheses())
    return entries


# -- the table of geometry kinds ------------------------------------------


class Kind(NamedTuple):
    """What one kind of geometry offers.

    `suites` maps each applicable suite, in run order, to a runner
    (obj, samples) -> entries.  `tensors` maps each `eval` tensor to
    obj -> the structure's own `TensorField`: a field of the geometry's
    dimension takes a base point, any other a point (x, y) of the bundle.
    `inside` tells whether a base point lies in the geometry's domain, and
    `base` gives the structure whose samples `fd_audit` reads.
    """

    suites: Dict[str, Callable]
    tensors: Dict[str, Callable]
    inside: Callable
    base: Callable


def _cone_rmap(cone, samples):
    autos = cones_mod.automorphism_samples(cone, 5)
    rng = np.random.default_rng([cone.seed, 11])
    shifts = [rng.uniform(-1.0, 1.0, cone.dim) for _ in autos]
    lift = rmap_mod.build_kahler_lift(cone.can)
    return rmap_suite(cone.can, samples) + [
        rmap_mod.check_invariance_psi(lift, autos, shifts, samples)
    ]


def _hessian_kind(structure_of, suites=None, tensors=None, domain_of=None):
    """A kind whose geometry is a Hessian structure, `structure_of(obj)`:
    the hessian and rmap suites and the tensors g, gr and omega, plus extras.
    Its domain is `domain_of(obj)`, by default the structure's."""
    domain_of = domain_of or (lambda obj: structure_of(obj).domain)

    def lift(obj):
        return rmap_mod.build_kahler_lift(structure_of(obj))

    return Kind(
        suites={
            "hessian": lambda obj, samples: check_hessian(structure_of(obj), samples),
            "rmap": lambda obj, samples: rmap_suite(structure_of(obj), samples),
            **(suites or {}),
        },
        tensors={
            "g": lambda obj: structure_of(obj).metric,
            "gr": lambda obj: lift(obj).metric,
            "omega": lambda obj: lift(obj).omega,
            **(tensors or {}),
        },
        inside=lambda obj, x: domain_of(obj).contains(x, margin=0.0),
        base=structure_of,
    )


def _sk_kind(suites, tensors=None):
    return Kind(
        suites={"cmap": cmap_suite, **suites},
        tensors={
            "g": lambda sk: sk.metric,
            "I": lambda sk: sk.complex_structure,
            "omega": lambda sk: sk.omega,
            "gc": lambda sk: sk.frame[0],
            **{f"I{k + 1}": lambda sk, k=k: sk.frame[1][k] for k in range(3)},
            **(tensors or {}),
        },
        # a special Kahler structure lives where its metric (Im F'') is positive definite
        inside=lambda sk, q: is_positive_definite(sk.metric(q)),
        base=lambda sk: sk,
    )


KINDS = {
    "cone": _hessian_kind(
        lambda cone: cone.can,
        suites={
            "rmap": _cone_rmap,
            "selfsimilar": lambda cone, samples: selfsimilar_suite(cone.selfsimilar, samples),
            "cone": cone_suite,
            "conformal": cone_conformal_suite,
        },
        tensors={
            "gcan": lambda cone: cone.can.metric,
            "gcon": lambda cone: cone.con.metric,
            "omega_ck": lambda cone: conformal_rescaling(
                cone.selfsimilar, rmap_mod.build_kahler_lift(cone.selfsimilar.base).omega
            ),
        },
        domain_of=lambda cone: cone.domain,
    ),
    "noncone": _hessian_kind(lambda structure: structure, suites={"rmap": _noncone_rmap}),
    "hessian": _hessian_kind(lambda structure: structure),
    "selfsimilar": _hessian_kind(
        lambda ss: ss.base,
        suites={
            "selfsimilar": selfsimilar_suite,
            "conformal": lambda ss, samples: [
                *rmap_mod.check_conformal_invariance(ss, samples), _assumed_hypotheses()
            ],
        },
    ),
    "sk": _sk_kind({}),
    "sk_homothetic": _sk_kind(
        {"conformal": sk_conformal_suite},
        {"g_chk": lambda sk: conformal_rescaling(_euler_selfsimilar(sk), sk.frame[0])},
    ),
}


def applicable_suites(kind):
    return tuple(KINDS[kind].suites)


def run_suite(kind, obj, suite, samples):
    return KINDS[kind].suites[suite](obj, samples)


def fd_audit(kind, obj, samples):
    """One `<tensor>__fd_audit` entry per field of the kind: at each sample point,
    max |dT - FD dT| / max(1, max |dT|) for the exact derivative dT and its finite
    difference.  A field of the geometry's dimension is read at the base's sample points,
    any other at bundle points over them.  The fields of one dimension share one
    finite-difference pass, so each stencil point is evaluated once for all of them."""
    spec = KINDS[kind]
    points = bundle_sample_points(spec.base(obj), samples, 0, cmap_mod.FIBER_SALT)
    fields = {name: tensor(obj) for name, tensor in spec.tensors.items()}
    entries = []
    for dim in dict.fromkeys(field.dim for field in fields.values()):
        group, at = {n: f for n, f in fields.items() if f.dim == dim}, points[:, :dim]
        fd = fd_tensor_derivative(lambda p: np.stack([f(p) for f in group.values()], -3), at)
        for k, (name, field) in enumerate(group.items()):
            exact = field.derivative(at)
            defect = max_abs(exact - fd[..., k, :, :], 3) / np.maximum(1.0, max_abs(exact, 3))
            claim = f"the exact derivative of {name} equals its finite difference"
            entries.append(measured(f"{name}__fd_audit", claim, FD_AUDIT_TOL, defect))
    return entries


def run_check(name, suites, samples, seed, fd_check=False, tol_overrides=None):
    kind, obj = resolve_geometry(name, seed, 100 if samples is None else samples)
    available = applicable_suites(kind)
    if "all" in suites:
        selected = available
    else:
        for s in suites:
            if s not in available:
                raise ConfigError(f"suite {s!r} does not apply to geometry {name!r}")
        selected = tuple(dict.fromkeys(suites))  # each once, in the order given
    report = VerificationReport(geometry=name, seed=obj.seed)
    for suite in selected:
        report.extend(run_suite(kind, obj, suite, samples))
    if fd_check:
        report.extend(fd_audit(kind, obj, samples))
    if tol_overrides:
        unknown = sorted(set(tol_overrides) - {e.check_id for e in report.entries})
        if unknown:
            raise ConfigError(f"--tol names checks not in the report: {', '.join(unknown)}")
        ungated = sorted(
            set(tol_overrides) - {e.check_id for e in report.entries if e.status == "checked"}
        )
        if ungated:
            raise ConfigError(f"--tol names entries that no tolerance gates: {', '.join(ungated)}")
        for entry in report.entries:
            if entry.check_id in tol_overrides:
                entry.tolerance = tol_overrides[entry.check_id]
    return report


# -- eval ------------------------------------------------------------------


EVAL_TENSORS = (
    "g", "gcan", "gcon", "gr", "omega", "omega_ck",
    "I", "gc", "I1", "I2", "I3", "g_chk",
)


def eval_tensor(name, tensor, point, seed=42):
    point = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"point coordinates must be finite, got {point.tolist()}")
    kind, obj = resolve_geometry(name, seed, 100)
    spec, n = KINDS[kind], obj.dim
    if tensor not in spec.tensors:
        raise ConfigError(f"tensor {tensor!r} is not available for geometry {name!r}")
    field = spec.tensors[tensor](obj)
    if field.dim == n:
        if len(point) != n:
            raise ConfigError(f"point must have {n} coordinates")
    else:
        point = _pad_fiber(point, n)
    if not spec.inside(obj, point[:n]):
        raise DomainError(f"point {point[:n].tolist()} lies outside the domain of {name!r}")
    return field(point)


def _pad_fiber(point, n):
    if len(point) == 2 * n:
        return point
    if len(point) == n:
        return np.concatenate([point, np.zeros(n)])
    raise ConfigError(f"point must have {n} or {2 * n} coordinates")


def format_matrix(M):
    rows = []
    for row in np.atleast_2d(M):
        rows.append("  ".join(f"{x: .12g}" for x in row))
    return "\n".join(rows)


# -- argument parsing ------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hessgeo",
        description="verify Hessian, Kahler and hyper-Kahler lift identities",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list built-in geometries and suites")
    lister.add_argument("--suites", action="store_true", help="list only the suites")
    lister.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="run verification suites")
    check.add_argument("geometry", help="preset name or JSON config path")
    check.add_argument(
        "--suite", action="append", default=None, choices=SUITE_NAMES,
        help="suite to run (repeatable; default: all applicable)",
    )
    check.add_argument(
        "--samples", type=int, default=None,
        help="sample points per check, at least 1 (default: each check's own)",
    )
    check.add_argument("--seed", type=int, default=42)
    check.add_argument(
        "--tol", action="append", default=[], metavar="ID=VALUE",
        help="override the tolerance of one check (repeatable)",
    )
    check.add_argument(
        "--fd-check", action="store_true",
        help="cross-check analytic residuals against finite differences",
    )
    check.add_argument("--json", action="store_true", help="print the JSON report")
    check.add_argument("--out", default=None, help="also write the JSON report here")

    ev = sub.add_parser("eval", help="print one tensor at a point")
    ev.add_argument("geometry")
    ev.add_argument("tensor", choices=EVAL_TENSORS)
    ev.add_argument(
        "--at", required=True,
        help="comma-separated coordinates; write a leading minus as --at=-1,-1",
    )
    ev.add_argument("--seed", type=int, default=42)
    ev.add_argument("--json", action="store_true")
    return parser


def _parse_tols(items):
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--tol expects ID=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
        if not 0 < out[key] < np.inf:
            raise ConfigError(f"--tol values must be finite and positive, got {item!r}")
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            if args.json:
                print(
                    json.dumps(
                        {
                            "presets": list(PRESETS),
                            "counterexamples": list(COUNTEREXAMPLES),
                            "suites": list(SUITE_NAMES),
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                )
            elif args.suites:
                print("suites: " + " ".join(SUITE_NAMES))
            else:
                print("presets:         " + " ".join(PRESETS))
                print("counterexamples: " + " ".join(COUNTEREXAMPLES))
                print("suites:          " + " ".join(SUITE_NAMES))
            return 0
        if args.command == "check":
            report = run_check(
                args.geometry,
                args.suite or ["all"],
                args.samples,
                args.seed,
                fd_check=args.fd_check,
                tol_overrides=_parse_tols(args.tol),
            )
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(report.to_json())
            print(report.to_json() if args.json else report.to_text())
            return 0 if report.passed else 1
        if args.command == "eval":
            try:
                point = [float(tok) for tok in args.at.split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --at coordinates {args.at!r}") from exc
            M = eval_tensor(args.geometry, args.tensor, point, seed=args.seed)
            if args.json:
                print(json.dumps(np.asarray(M).tolist(), separators=(",", ":")))
            else:
                print(format_matrix(M))
            return 0
    except HessgeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
