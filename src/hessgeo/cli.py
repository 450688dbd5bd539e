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
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import cones as cones_mod
from . import cmap as cmap_mod
from . import rmap as rmap_mod
from .errors import ConfigError, DomainError, HessgeoError, UnknownPreset
from .report import CheckResult, VerificationReport, __version__
from .structures import (
    Domain,
    HessianStructure,
    SelfsimilarHessianStructure,
    check_selfsimilar,
    conformal_rescaling,
    field_from_config,
    make_hessian_structure,
)
from .expressions import parse_expression
from .tensors import (
    Residual,
    TensorField,
    VectorFieldSpec,
    exterior_derivative_2form,
    finite_differences,
    invariance_defect,
    is_positive_definite,
    symmetry_defect,
)

PRESETS = cones_mod.PRESET_NAMES + cmap_mod.SK_PRESET_NAMES
COUNTEREXAMPLES = ("noncone_counterexample",)
GEOMETRY_NAMES = PRESETS + COUNTEREXAMPLES

SUITE_NAMES = ("hessian", "rmap", "selfsimilar", "cone", "cmap", "conformal", "all")

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
    and tensors the geometry offers.  The seed, the sample count and those a
    config states itself are checked here, where they enter."""
    _require_count("--seed", seed, 0)
    _require_count("--samples", samples, 1)
    if name in cones_mod.PRESET_NAMES:
        return "cone", cones_mod.preset(name, seed)
    if name in cmap_mod.SK_PRESET_NAMES:
        return _special_kahler(cmap_mod.special_kahler_preset(name, seed=seed, samples=samples))
    if name == "noncone_counterexample":
        return "noncone", noncone_structure(seed=seed, samples=samples)
    if name.endswith(".json"):
        config = _read_config(name)
        _require_count("the config's seed", config.setdefault("seed", seed), 0)
        _require_count("the config's samples", config.setdefault("samples", samples), 1)
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


def _require_count(what, value, least):
    """Raises ConfigError unless `value` is an integer of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{what} must be at least {least}, got {value}")


def _special_kahler(sk):
    """(kind, sk): "sk_homothetic" when the Euler field xi(q) = q validates as
    homothetic, as for a prepotential homogeneous of degree 2; else "sk"."""
    try:
        _euler_selfsimilar(sk).validate()
    except ConfigError:
        return "sk", sk
    return "sk_homothetic", sk


# -- generic suites --------------------------------------------------------


def hessian_suite(structure: HessianStructure, samples=None) -> List[CheckResult]:
    points = structure.sample_points(samples)
    res_pd, res_sym = Residual(), Residual()
    for p in points:
        res_pd.add(-np.min(np.linalg.eigvalsh(structure.metric(p))))
        res_sym.add(symmetry_defect(structure.metric.derivative(p)))
    return [
        CheckResult(
            "hessian_positive_definite",
            "the metric is positive definite on the sampled domain",
            res_pd.value,
            1e-10,
            len(points),
        ),
        CheckResult(
            "hessian_symmetry",
            "d_k g_ij is totally symmetric (g is locally a Hessian)",
            res_sym.value,
            1e-8,
            len(points),
        ),
    ]


def rmap_suite(
    structure: HessianStructure,
    samples=None,
    automorphisms=(),
    fiber_shifts=(),
    noncone_point=None,
) -> List[CheckResult]:
    lift = rmap_mod.build_kahler_lift(structure)
    entries = [rmap_mod.check_kahler(lift, samples)]
    if structure.potential is not None:
        entries.append(rmap_mod.check_potential_identity(lift, samples))
    if automorphisms:
        entries.append(
            rmap_mod.check_invariance_psi(lift, automorphisms, fiber_shifts, samples)
        )
    if noncone_point is not None:
        dw = exterior_derivative_2form(lift.omega, noncone_point)
        entries.append(
            CheckResult(
                "noncone_exterior_value",
                "max |d(omega)| at the marked point equals 1 exactly",
                abs(float(np.max(np.abs(dw))) - 1.0),
                1e-3,
                1,
            )
        )
    return entries


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
        _assumed_hypotheses(),
    ]


def cone_suite(cone: cones_mod.ConePreset, samples=None) -> List[CheckResult]:
    samples = samples or 50
    entries = [cones_mod.dilation_law(cone, q, samples=samples) for q in (2.0, 0.5, 3.0)]
    entries.append(cones_mod.radiant_law(cone, samples=samples))
    full = cones_mod.automorphism_samples(cone, 10, unimodular=False)
    unim = cones_mod.automorphism_samples(cone, 10, unimodular=True)
    res_full = invariance_defect(full, cone.can.sample_points(20, salt=2), (cone.can.metric,))
    res_unim = invariance_defect(unim, cone.con.sample_points(20, salt=2), (cone.con.metric,))
    entries.append(
        CheckResult(
            "cone_full_invariance",
            "g_can is invariant under the sampled full automorphism group",
            res_full,
            1e-8,
            20 * len(full),
        )
    )
    entries.append(
        CheckResult(
            "cone_unimodular_invariance",
            "g_con is invariant under the sampled unimodular automorphisms",
            res_unim,
            1e-8,
            20 * len(unim),
        )
    )
    # negative control phrased as an exact value: under x -> 2x the relative
    # defect of g_con equals 1 - 2^(-n), comfortably above 0.5
    expected = 1.0 - 2.0 ** (-cone.dim)
    measured = invariance_defect(
        [cones_mod.AffineAutomorphism.linear(2.0 * np.eye(cone.dim))],
        cone.con.sample_points(20, salt=4),
        (cone.con.metric,),
    )
    entries.append(
        CheckResult(
            "cone_negative_control",
            "non-unimodular scaling defect of g_con equals 1 - 2^(-n) > 0.5 exactly",
            abs(measured - expected),
            1e-8,
            20,
        )
    )
    return entries


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
    reach = Residual()
    for p in points:
        images = np.array([T(p) for T in unim])
        best = np.inf
        for q in points:
            if np.allclose(q, p):
                continue
            best = min(best, float(np.min(np.linalg.norm(images - q, axis=1))))
        reach.add(best)
    entries.append(
        CheckResult(
            "orbit_reachability",
            "closest approach between sampled point pairs under one step of "
            "the sampled unimodular generators",
            reach.value,
            0.0,
            len(points),
            status="informational",
        )
    )
    entries.append(_assumed_hypotheses())
    return entries


def cmap_suite(sk, samples=None) -> List[CheckResult]:
    entries = cmap_mod.check_special_kahler_axioms(sk, samples)
    entries.extend(cmap_mod.check_hyperkahler(sk, samples))
    autos, shifts = _sk_automorphisms(sk)
    entries.append(cmap_mod.check_invariance_psi_hat(sk, autos, shifts, samples))
    return entries


def _sk_automorphisms(sk):
    """Holomorphic isometries with fiber shifts: the rotations the structure
    states, generated by its constant I, or else the identity."""
    rng = np.random.default_rng([sk.seed, 29])
    shifts = [rng.uniform(-1.0, 1.0, sk.dim) for _ in range(3)]
    if sk.rotations:
        I = sk.complex_structure(sk.sample_points(1, salt=9)[0])
        autos = [
            cmap_mod.AffineAutomorphism.linear(
                np.cos(t) * np.eye(sk.dim) + np.sin(t) * I
            )
            for t in sk.rotations
        ]
    else:
        autos = [
            cmap_mod.AffineAutomorphism.linear(np.eye(sk.dim)) for _ in range(3)
        ]
    return autos, shifts


def _euler_selfsimilar(sk):
    """sk with the Euler field xi(q) = q as its homothetic field."""
    return SelfsimilarHessianStructure(sk, VectorFieldSpec.from_affine(np.eye(sk.dim)))


def sk_conformal_suite(sk, samples=None) -> List[CheckResult]:
    entries = cmap_mod.check_conformal_hyperkahler(_euler_selfsimilar(sk), samples)
    entries.append(_assumed_hypotheses())
    return entries


# -- the table of geometry kinds ------------------------------------------


@dataclass(frozen=True)
class Kind:
    """What one kind of geometry offers.

    `suites` maps each applicable suite, in run order, to a runner
    (obj, samples) -> entries; `--fd-check` reruns those of `fd_suites`
    inside `finite_differences()`.  `tensors` maps each `eval` tensor to
    (obj, point) -> matrix, where the tensors of `base_tensors` take a
    base point and the others a point (x, y) of the bundle.  `inside` tells
    whether a base point lies in the geometry's domain.
    """

    suites: Dict[str, Callable]
    fd_suites: Tuple[str, ...]
    tensors: Dict[str, Callable]
    base_tensors: Tuple[str, ...]
    inside: Callable


def _cone_rmap(cone, samples):
    autos = cones_mod.automorphism_samples(cone, 5)
    rng = np.random.default_rng([cone.seed, 11])
    shifts = [rng.uniform(-1.0, 1.0, cone.dim) for _ in autos]
    return rmap_suite(cone.can, samples, autos, shifts)


def _hessian_kind(structure_of, suites=None, fd_suites=("rmap",), tensors=None, base_tensors=("g",)):
    """A kind whose geometry is a Hessian structure, `structure_of(obj)`:
    the hessian and rmap suites and the tensors g, gr and omega, plus extras."""

    def lift(obj):
        return rmap_mod.build_kahler_lift(structure_of(obj))

    return Kind(
        suites={
            "hessian": lambda obj, samples: hessian_suite(structure_of(obj), samples),
            "rmap": lambda obj, samples: rmap_suite(structure_of(obj), samples),
            **(suites or {}),
        },
        fd_suites=fd_suites,
        tensors={
            "g": lambda obj, x: structure_of(obj).metric(x),
            "gr": lambda obj, p: lift(obj).metric(p),
            "omega": lambda obj, p: lift(obj).omega(p),
            **(tensors or {}),
        },
        base_tensors=base_tensors,
        inside=lambda obj, x: obj.domain.contains(x, margin=0.0),
    )


def _frame_tensor(name):
    """A matrix of the hyper-Kahler frame at the point (q, p) of T*M."""
    return lambda sk, p: getattr(
        cmap_mod.build_hyperkahler(sk, p[: sk.dim], p[sk.dim :]), name
    )


def _sk_kind(suites, tensors=None):
    return Kind(
        suites={"cmap": cmap_suite, **suites},
        fd_suites=("cmap", *suites),
        tensors={
            "g": lambda sk, q: sk.metric(q),
            "I": lambda sk, q: sk.complex_structure(q),
            "omega": lambda sk, q: sk.omega(q),
            **{name: _frame_tensor(name) for name in ("gc", "I1", "I2", "I3")},
            **(tensors or {}),
        },
        base_tensors=("g", "I", "omega"),
        # a special Kahler structure lives where its metric (Im F'') is positive definite
        inside=lambda sk, q: is_positive_definite(sk.metric(q)),
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
        fd_suites=("rmap", "selfsimilar", "conformal"),
        tensors={
            "gcan": lambda cone, x: cone.can.metric(x),
            "gcon": lambda cone, x: cone.con.metric(x),
            "omega_ck": lambda cone, p: conformal_rescaling(
                cone.selfsimilar, rmap_mod.build_kahler_lift(cone.selfsimilar.base).omega
            )(p),
        },
        base_tensors=("g", "gcan", "gcon"),
    ),
    "noncone": _hessian_kind(
        lambda structure: structure,
        suites={
            "rmap": lambda structure, samples: rmap_suite(
                structure, samples, noncone_point=NONCONE_POINT
            ),
        },
    ),
    "hessian": _hessian_kind(lambda structure: structure),
    "selfsimilar": _hessian_kind(
        lambda ss: ss.base,
        suites={
            "selfsimilar": selfsimilar_suite,
            "conformal": rmap_mod.check_conformal_invariance,
        },
        fd_suites=("rmap", "selfsimilar", "conformal"),
    ),
    "sk": _sk_kind({}),
    "sk_homothetic": _sk_kind(
        {"conformal": sk_conformal_suite},
        {
            "g_chk": lambda sk, p: conformal_rescaling(_euler_selfsimilar(sk), sk.frame[0])(p),
        },
    ),
}


def applicable_suites(kind):
    return tuple(KINDS[kind].suites)


def run_suite(kind, obj, suite, samples):
    runner = KINDS[kind].suites.get(suite)
    if runner is None:
        raise ConfigError(f"suite {suite!r} does not apply to this geometry")
    return runner(obj, samples)


def run_check(name, suites, samples, seed, fd_check=False, tol_overrides=None):
    kind, obj = resolve_geometry(name, seed, 100 if samples is None else samples)
    available = applicable_suites(kind)
    if "all" in suites:
        selected = available
    else:
        for s in suites:
            if s not in available:
                raise ConfigError(f"suite {s!r} does not apply to geometry {name!r}")
        selected = tuple(suites)
    report = VerificationReport(geometry=name, seed=obj.seed)
    for suite in selected:
        entries = run_suite(kind, obj, suite, samples)
        report.extend(entries)
        if fd_check and suite in KINDS[kind].fd_suites:
            with finite_differences():
                fd_entries = {e.check_id: e for e in run_suite(kind, obj, suite, samples)}
            for entry in entries:
                twin = fd_entries.get(entry.check_id)
                if twin is None or entry.status != "checked":
                    continue
                report.add(
                    CheckResult(
                        f"{entry.check_id}__fd_delta",
                        "analytic and finite-difference residuals agree",
                        abs(entry.residual - twin.residual),
                        1e-3,
                        entry.samples,
                    )
                )
    seen = set()
    deduped = []
    for entry in report.entries:
        if entry.status != "checked" and entry.check_id in seen:
            continue
        seen.add(entry.check_id)
        deduped.append(entry)
    report.entries = deduped
    if tol_overrides:
        unknown = sorted(set(tol_overrides) - {e.check_id for e in report.entries})
        if unknown:
            raise ConfigError(f"--tol names checks not in the report: {', '.join(unknown)}")
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
    spec = KINDS[kind]
    n = obj.dim
    if tensor in spec.base_tensors:
        if len(point) != n:
            raise ConfigError(f"point must have {n} coordinates")
    else:
        point = _pad_fiber(point, n)
    evaluate = spec.tensors.get(tensor)
    if evaluate is None:
        raise ConfigError(f"tensor {tensor!r} is not available for geometry {name!r}")
    if not spec.inside(obj, point[:n]):
        raise DomainError(f"point {point[:n].tolist()} lies outside the domain of {name!r}")
    return evaluate(obj, point)


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
