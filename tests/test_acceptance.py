"""Acceptance gate: one test per criterion, one printed verdict line each.

Every criterion is evaluated at its stated tolerance; the printed line shows
the worst residual actually observed.
"""

import numpy as np
import pytest

from hessgeo.cli import NONCONE_POINT, noncone_structure, run_check
from hessgeo.cmap import (
    ConformalHyperKahler,
    check_conformal_hyperkahler,
    check_hyperkahler,
    check_special_kahler_axioms,
    special_kahler_preset,
)
from hessgeo.cones import automorphism_samples, dilation_law, preset, radiant_law
from hessgeo.rmap import (
    build_conformal_lift,
    build_kahler_lift,
    check_conformal_invariance,
    check_kahler,
    check_lemma_xi_items,
    check_potential_identity,
)
from hessgeo.structures import check_selfsimilar
from hessgeo.tensors import (
    exterior_derivative_2form,
    fd_tensor_derivative,
    pullback_metric,
)

CONES = ("orthant2", "orthant3", "lorentz3", "spd2")
SAMPLES = 100


def verdict(capsys, number, label, entries):
    worst = max((e.residual for e in entries), default=0.0)
    ok = all(e.passed for e in entries)
    with capsys.disabled():
        print(
            f"\nacceptance {number} [{'PASS' if ok else 'FAIL'}] {label} "
            f"(worst residual {worst:.3e}, {len(entries)} checks)"
        )
    assert ok, [(e.check_id, e.residual, e.tolerance) for e in entries if not e.passed]


def test_criterion_1_rmap_equivalence(capsys):
    entries = []
    for name in CONES:
        cone = preset(name)
        for which in ("can", "con"):
            lift = build_kahler_lift(
                cone.hessian_structure(which, samples=SAMPLES)
            )
            entry = check_kahler(lift, SAMPLES, tolerance=1e-5)
            entry.check_id = f"{name}_{which}_{entry.check_id}"
            entries.append(entry)
    # counterexample: at x1 = 0.5 the closedness defect equals 1 exactly
    lift = build_kahler_lift(noncone_structure(samples=SAMPLES))
    dw = exterior_derivative_2form(lift.omega, NONCONE_POINT)
    from hessgeo.report import CheckResult

    entries.append(
        CheckResult(
            "noncone_exterior_value",
            "counterexample residual at x1 = 0.5 equals 1",
            abs(float(np.max(np.abs(dw))) - 1.0),
            1e-3,
            1,
        )
    )
    assert not check_kahler(lift, 20).passed
    verdict(capsys, 1, "r-map equivalence on cone presets + counterexample", entries)


def test_criterion_2_potential_identity(capsys):
    entries = []
    for name in CONES:
        cone = preset(name)
        for which in ("can", "con"):
            lift = build_kahler_lift(
                cone.hessian_structure(which, samples=SAMPLES)
            )
            entry = check_potential_identity(lift, SAMPLES, tolerance=1e-8)
            entry.check_id = f"{name}_{which}_{entry.check_id}"
            entries.append(entry)
    verdict(capsys, 2, "lifted metric equals the complex Hessian of the potential", entries)


def test_criterion_3_cone_laws(capsys):
    from hessgeo.report import CheckResult

    entries = []
    for name in CONES:
        cone = preset(name)
        entries.append(radiant_law(cone, samples=50))
        for q in (0.5, 2.0, 3.0):
            entries.append(dilation_law(cone, q, samples=50))
        can = cone.hessian_structure("can", samples=30)
        con = cone.hessian_structure("con", samples=30)
        res_full = res_unim = 0.0
        for structure, unimodular in ((can, False), (con, True)):
            res = 0.0
            for T in automorphism_samples(cone, 20, unimodular=unimodular):
                for p in structure.sample_points(10, salt=2):
                    g = structure.metric(p)
                    res = max(
                        res,
                        float(
                            np.max(np.abs(pullback_metric(T, structure.metric, p) - g))
                            / np.max(np.abs(g))
                        ),
                    )
            if unimodular:
                res_unim = res
            else:
                res_full = res
        entries.append(
            CheckResult(f"{name}_full_invariance", "g_can invariant", res_full, 1e-8, 200)
        )
        entries.append(
            CheckResult(f"{name}_unimodular_invariance", "g_con invariant", res_unim, 1e-8, 200)
        )
        # negative control: non-unimodular scaling defect exceeds 0.5
        from hessgeo.tensors import AffineAutomorphism

        T = AffineAutomorphism.linear(2.0 * np.eye(cone.dim))
        p = con.sample_points(1, salt=4)[0]
        g = con.metric(p)
        defect = float(
            np.max(np.abs(pullback_metric(T, con.metric, p) - g)) / np.max(np.abs(g))
        )
        assert defect > 0.5
        entries.append(
            CheckResult(
                f"{name}_negative_control",
                "non-unimodular defect equals 1 - 2^(-n)",
                abs(defect - (1.0 - 2.0 ** (-cone.dim))),
                1e-8,
                1,
            )
        )
    verdict(capsys, 3, "cone dilation/radiant laws and automorphism invariances", entries)


def test_criterion_4_selfsimilar_suite(capsys):
    entries = []
    for name in CONES:
        cone = preset(name)
        ss = cone.selfsimilar
        entry = check_selfsimilar(ss.base, ss.xi, SAMPLES, tolerance=1e-8)
        entry.check_id = f"{name}_{entry.check_id}"
        entries.append(entry)
        cl = build_conformal_lift(ss)
        entry = check_lemma_xi_items(cl, 50, tolerance=1e-8)
        entry.check_id = f"{name}_{entry.check_id}"
        entries.append(entry)
        for entry in check_conformal_invariance(cl, 50, tolerance=1e-6):
            entry.check_id = f"{name}_{entry.check_id}"
            entries.append(entry)
    verdict(capsys, 4, "selfsimilar structures and the conformal Kahler flow", entries)


def test_criterion_5_cmap_suite(capsys):
    entries = []
    for name in ("sk_flat", "sk_cubic", "sk_conic"):
        sk = special_kahler_preset(name, samples=SAMPLES)
        for entry in check_special_kahler_axioms(sk, 50, tolerance=1e-6):
            entry.check_id = f"{name}_{entry.check_id}"
            entries.append(entry)
        for entry in check_hyperkahler(
            sk,
            50,
            quaternion_tolerance=1e-8,
            closedness_tolerance=1e-5,
            shift_tolerance=1e-12,
        ):
            entry.check_id = f"{name}_{entry.check_id}"
            entries.append(entry)
    verdict(capsys, 5, "special Kahler axioms and the hyper-Kahler frame", entries)


def test_criterion_6_conformal_hyperkahler(capsys):
    from hessgeo.tensors import VectorFieldSpec

    entries = []
    for name in ("sk_flat", "sk_conic"):
        sk = special_kahler_preset(name, samples=25)
        chk = ConformalHyperKahler(sk, VectorFieldSpec.from_affine(np.eye(sk.dim)))
        for entry in check_conformal_hyperkahler(chk, 25, tolerance=1e-5):
            entry.check_id = f"{name}_{entry.check_id}"
            entries.append(entry)
    verdict(capsys, 6, "conformal hyper-Kahler flow with the Euler field", entries)


def test_criterion_7_ad_fd_agreement(capsys):
    report = run_check("lorentz3", ["rmap", "selfsimilar", "conformal"], 25, 42, fd_check=True)
    deltas = [e for e in report.entries if e.check_id.endswith("__fd_delta")]
    assert deltas
    # and one cross-check on the Newton-backed pipeline: FD derivative of the
    # Darboux metric against the implicit analytic one
    sk = special_kahler_preset("sk_conic", samples=5)
    from hessgeo.report import CheckResult

    q = sk.sample_points(1)[0]
    delta = float(
        np.max(np.abs(sk.metric.derivative(q) - fd_tensor_derivative(sk.metric.func, q)))
    )
    deltas.append(
        CheckResult("sk_conic_dg_fd_delta", "analytic vs FD Darboux metric derivative", delta, 1e-3, 1)
    )
    verdict(capsys, 7, "AD residuals agree with the FD pipeline", deltas)


def test_criterion_8_determinism(capsys):
    from hessgeo.report import CheckResult

    pairs = [
        run_check("spd2", ["all"], 20, 42).to_json()
        == run_check("spd2", ["all"], 20, 42).to_json(),
        run_check("sk_conic", ["cmap"], 5, 42).to_json()
        == run_check("sk_conic", ["cmap"], 5, 42).to_json(),
        run_check("noncone_counterexample", ["all"], 20, 7).to_json()
        == run_check("noncone_counterexample", ["all"], 20, 7).to_json(),
    ]
    entries = [
        CheckResult(
            f"determinism_{k}", "byte-identical JSON on repeated runs", 0.0 if ok else 1.0, 0.5, 2
        )
        for k, ok in enumerate(pairs)
    ]
    verdict(capsys, 8, "seeded runs produce byte-identical JSON reports", entries)
