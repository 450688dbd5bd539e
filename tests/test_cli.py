import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hessgeo import cmap, structures
from hessgeo.cli import (
    GEOMETRY_NAMES,
    KINDS,
    SUITE_NAMES,
    applicable_suites,
    eval_tensor,
    main,
    resolve_geometry,
    run_check,
)
from hessgeo.expressions import ScalarExpression

CONE_SUITES = ("hessian", "rmap", "selfsimilar", "cone", "conformal")
HESSIAN_CONFIG = {
    "name": "orthant_conical",
    "dim": 2,
    "potential": "1/(x1*x2)",
    "domain": ["x1", "x2"],
    "box": [[0.5, 2.0], [0.5, 2.0]],
}
FIELD = {"field_affine": {"A": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}}
# flat special Kahler structure given directly by its potential and I
SK_CONFIG = {
    "name": "sk_direct",
    "dim": 2,
    "potential": "(q1^2+q2^2)/2",
    "I": [["0", "-1"], ["1", "0"]],
    "box": [[-1.0, 1.0], [-1.0, 1.0]],
}


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in GEOMETRY_NAMES:
        assert name in out
    assert "cmap" in out


def test_check_pass_exit_code(capsys):
    code = main(["check", "orthant2", "--suite", "cone", "--samples", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert "[PASS]" in out


def test_check_fail_exit_code(capsys):
    code = main(
        ["check", "noncone_counterexample", "--suite", "rmap", "--samples", "10"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] kahler_closed" in out
    assert "[PASS] noncone_exterior_value" in out


def test_unknown_geometry_exit_code(capsys):
    assert main(["check", "nope"]) == 2
    assert "error:" in capsys.readouterr().err


def test_inapplicable_suite_exit_code(capsys):
    assert main(["check", "sk_flat", "--suite", "cone"]) == 2


def test_json_report_shape(capsys):
    code = main(
        ["check", "orthant2", "--suite", "selfsimilar", "--samples", "10", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["geometry"] == "orthant2"
    assert payload["pass"] is True
    ids = [e["check_id"] for e in payload["entries"]]
    assert ids == sorted(ids)
    for entry in payload["entries"]:
        assert set(entry) == {
            "check_id", "claim", "residual", "tolerance", "samples", "status", "pass",
        }


def test_report_bytes_deterministic():
    a = run_check("spd2", ["selfsimilar", "cone"], 10, 42).to_json()
    b = run_check("spd2", ["selfsimilar", "cone"], 10, 42).to_json()
    assert a.encode() == b.encode()


def test_seed_changes_samples_not_verdict():
    a = run_check("orthant2", ["cone"], 10, 1)
    b = run_check("orthant2", ["cone"], 10, 2)
    assert a.passed and b.passed
    assert a.to_json() != b.to_json()


def test_tol_override_can_force_failure():
    report = run_check(
        "orthant2", ["cone"], 10, 42, tol_overrides={"radiant_law": 1e-300}
    )
    assert not report.passed


def test_tol_override_of_unknown_check_rejected(capsys):
    code = main(["check", "orthant2", "--suite", "cone", "--samples", "5", "--tol", "nosuch=1"])
    assert code == 2
    assert "--tol names checks not in the report: nosuch" in capsys.readouterr().err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "check", "orthant2", "--suite", "cone", "--samples", "10",
            "--out", str(target),
        ]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["geometry"] == "orthant2"


def test_config_file_geometry(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({**HESSIAN_CONFIG, **FIELD}))
    report = run_check(str(path), ["all"], 10, 42)
    assert report.passed
    ids = {e.check_id for e in report.entries}
    assert "selfsimilar_metric" in ids
    assert "conformal_omega_ck_flow" in ids


def test_config_with_non_homothetic_field_rejected(tmp_path, capsys):
    path = tmp_path / "geom.json"
    field = {"field_affine": {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]}}
    path.write_text(json.dumps({**HESSIAN_CONFIG, **field}))
    # validated once, when the geometry is resolved: every command rejects it
    assert main(["check", str(path), "--suite", "hessian"]) == 2
    assert main(["eval", str(path), "g", "--at=1,1"]) == 2
    assert "L_xi g != 2 g" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, code, message",
    [
        pytest.param({"field": ["-x1", "-x2"]}, 0, None, id="components"),
        pytest.param({"field": ["-x1", "-x2"], **FIELD}, 0, None, id="components-and-affine"),
        pytest.param(
            {"field_affine": {"A": [[-1.0, 0.0]], "b": [0.0, 0.0]}},
            2,
            "field_affine needs a 2x2 A and a length-2 b",
            id="misshapen-A",
        ),
        pytest.param(
            {"field_affine": {"A": [[-1.0, 0.0], [0.0, -1.0]]}},
            2,
            "bad field_affine: KeyError('b')",
            id="missing-b",
        ),
        pytest.param(
            {"field": ["-x1", "-x2+0.5"], **FIELD}, 2, "field disagrees with field_affine",
            id="disagreeing",
        ),
        pytest.param(
            {"field": ["x1^2", "x2"]}, 2, "field is not affine", id="quadratic"
        ),
    ],
)
def test_field_config_boundary(tmp_path, capsys, field, code, message):
    path = tmp_path / "geom.json"
    argv = ["check", str(path), "--samples", "5", "--json"]
    path.write_text(json.dumps({**HESSIAN_CONFIG, **field}))
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert f"error: {message}" in err
        return
    # the components are the affine field -x: the same report as field_affine
    path.write_text(json.dumps({**HESSIAN_CONFIG, **FIELD}))
    assert main(argv) == 0
    assert out == capsys.readouterr().out
    passed = {e["check_id"]: e["pass"] for e in json.loads(out)["entries"]}
    assert passed["selfsimilar_metric"] and passed["conformal_omega_ck_flow"]


def test_special_kahler_config_geometry(tmp_path):
    path = tmp_path / "sk.json"
    path.write_text(json.dumps(SK_CONFIG))
    report = run_check(str(path), ["cmap"], 5, 42)
    assert report.passed
    assert {"sk_integrable", "hk_closed_forms"} <= {e.check_id for e in report.entries}


def test_eval_canonical_metric():
    M = eval_tensor("orthant2", "g", [1.0, 1.0])
    assert M == pytest.approx(np.eye(2))
    M = eval_tensor("orthant2", "gcon", [1.0, 1.0])
    assert M == pytest.approx(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_eval_lifted_tensors():
    w = eval_tensor("orthant2", "omega", [2.0, 1.0])
    assert w[:2, 2:] == pytest.approx(np.diag([0.25, 1.0]))
    I1 = eval_tensor("sk_flat", "I1", [0.2, 0.1])
    assert I1 @ I1 == pytest.approx(-np.eye(4))


def test_eval_cli_output(capsys):
    code = main(["eval", "orthant2", "g", "--at", "1,1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == [[1.0, 0.0], [0.0, 1.0]]


def test_eval_bad_point(capsys):
    assert main(["eval", "orthant2", "g", "--at", "1,zz"]) == 2
    assert main(["eval", "orthant2", "g", "--at", "1,1,1,1,1"]) == 2


def test_fd_check_entries():
    report = run_check("orthant2", ["selfsimilar"], 8, 42, fd_check=True)
    ids = {e.check_id for e in report.entries}
    assert "selfsimilar_metric__fd_delta" in ids
    assert report.passed


# the checks that differentiate the hyper-Kahler frame on T*M
FRAME_DERIVATIVE_CHECKS = (
    "hk_closed_forms",
    "chk_norm_homothety",
    "chk_metric_flow",
    "chk_complex_structures_flow",
    "chk_unscaled_negative_control",
)


def test_fd_hessian_of_the_kahler_potential_is_not_round_off_bound(capsys):
    # an FD derivative of the exact jet gradient; FD of an FD gradient gave 4.7e-6
    assert main(["check", "orthant2", "--suite", "rmap", "--samples", "20", "--fd-check", "--json"]) == 0
    entries = {e["check_id"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    assert entries["kahler_potential__fd_delta"]["residual"] < 1e-8


def test_fd_check_covers_special_kahler_suites(capsys):
    code = main(["check", "sk_conic", "--samples", "5", "--fd-check", "--json"])
    assert code == 0
    entries = {e["check_id"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    for check_id in FRAME_DERIVATIVE_CHECKS:
        assert entries[f"{check_id}__fd_delta"]["pass"], check_id


@pytest.mark.parametrize(
    "geometry, seed, extra, expected",
    [
        pytest.param(
            geometry, seed, extra, expected,
            id="-".join([geometry, str(seed), *extra, str(expected)]),
        )
        for geometry, seed, extra, expected in [
            (name, 42, (), 1 if name == "noncone_counterexample" else 0)
            for name in GEOMETRY_NAMES
        ]
        # seed 4 draws a sample with |q| = 0.0135, next to the pole of g_chK
        + [("sk_flat", 4, (), 0), ("sk_flat", 4, ("--fd-check",), 0)]
    ],
)
def test_default_check_exit_codes(geometry, seed, extra, expected):
    assert main(["check", geometry, "--seed", str(seed), *extra]) == expected


def test_special_kahler_config_rejects_misshapen_I(tmp_path, capsys):
    path = tmp_path / "sk.json"
    path.write_text(json.dumps({**SK_CONFIG, "I": [["0", "-1"]]}))
    assert main(["check", str(path)]) == 2
    assert "I must have 2 rows of 2 components" in capsys.readouterr().err


@pytest.mark.parametrize(
    "geometry, suites, inapplicable",
    [
        ("orthant2", CONE_SUITES, "cmap"),
        ("orthant3", CONE_SUITES, "cmap"),
        ("lorentz3", CONE_SUITES, "cmap"),
        ("spd2", CONE_SUITES, "cmap"),
        ("noncone_counterexample", ("hessian", "rmap"), "selfsimilar"),
        ("sk_flat", ("cmap", "conformal"), "cone"),
        ("sk_cubic", ("cmap",), "conformal"),
        ("sk_conic", ("cmap", "conformal"), "rmap"),
        ("plain.json", ("hessian", "rmap"), "conformal"),
        ("field.json", ("hessian", "rmap", "selfsimilar", "conformal"), "cone"),
        ("sk.json", ("cmap", "conformal"), "hessian"),
    ],
)
def test_applicable_suites(tmp_path, monkeypatch, capsys, geometry, suites, inapplicable):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plain.json").write_text(json.dumps(HESSIAN_CONFIG))
    (tmp_path / "field.json").write_text(json.dumps({**HESSIAN_CONFIG, **FIELD}))
    (tmp_path / "sk.json").write_text(json.dumps(SK_CONFIG))
    kind, _ = resolve_geometry(geometry, 42, 5)
    assert applicable_suites(kind) == suites
    assert main(["check", geometry, "--suite", inapplicable]) == 2
    assert f"suite {inapplicable!r} does not apply" in capsys.readouterr().err


def test_suite_table_covers_the_suite_names():
    offered = {suite for spec in KINDS.values() for suite in spec.suites}
    assert offered == set(SUITE_NAMES) - {"all"}
    for spec in KINDS.values():
        assert set(spec.fd_suites) <= set(spec.suites)
        assert set(spec.base_tensors) <= set(spec.tensors)


FLAT_PREPOTENTIAL = {"m": 1, "F": "i*z1^2/2", "box": [[-1.0, 1.0], [-1.0, 1.0]]}
CHECK_CFG = ["check", "cfg.json"]
CHECK_TOL = ["check", "orthant2", "--suite", "hessian", "--samples", "3", "--json", "--tol"]


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ("{bad", CHECK_CFG, "cfg.json is not valid JSON"),
        ("[1, 2]", CHECK_CFG, "cfg.json must hold a JSON object, not a list"),
        (None, ["check", "orthant2", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (None, ["eval", "orthant2", "g", "--at=1,1", "--seed", "-1"], "--seed must be at least 0"),
        ({**HESSIAN_CONFIG, "seed": -3}, CHECK_CFG, "seed must be at least 0, got -3"),
        ({**HESSIAN_CONFIG, "seed": "abc"}, CHECK_CFG, "seed must be an integer, got 'abc'"),
        ({**HESSIAN_CONFIG, "samples": 0}, CHECK_CFG, "samples must be at least 1, got 0"),
        ({**FLAT_PREPOTENTIAL, "samples": "x"}, CHECK_CFG, "samples must be an integer"),
        ({**FLAT_PREPOTENTIAL, "samples": 0}, CHECK_CFG, "samples must be at least 1"),
        ({**FLAT_PREPOTENTIAL, "samples": -3}, CHECK_CFG, "samples must be at least 1"),
        *(
            (None, CHECK_TOL + [f"hessian_symmetry={value}"], "must be finite and positive")
            for value in ("nan", "inf", "-1", "0")
        ),
    ],
    ids=[
        "not-json", "not-an-object", "negative-seed", "eval-negative-seed",
        "config-negative-seed", "config-text-seed", "config-zero-samples",
        "prepotential-text-samples", "prepotential-zero-samples", "prepotential-negative-samples",
        "tol-nan", "tol-inf", "tol-negative", "tol-zero",
    ],
)
def test_bad_input_exits_2_with_a_message(tmp_path, monkeypatch, capsys, config, argv, message):
    # each of these raised from json, numpy or a dict method and exited 1
    monkeypatch.chdir(tmp_path)
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "cfg.json").write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_special_kahler_kind_follows_its_euler_field(tmp_path, capsys):
    # z1^3/6 is not homogeneous of degree 2, so its Euler field is not
    # homothetic: as a config it gets the sk_cubic preset's suites and no g_chK
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({"m": 1, "F": "z1^3/6", "box": [[-1, 1], [0.5, 1.5]]}))
    kind, _ = resolve_geometry(str(path), 42, 5)
    assert applicable_suites(kind) == applicable_suites(resolve_geometry("sk_cubic", 42, 5)[0])
    assert main(["check", str(path), "--samples", "5"]) == 0
    capsys.readouterr()
    assert main(["eval", str(path), "g_chk", "--at=0.1,-0.495"]) == 2
    assert "tensor 'g_chk' is not available" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_rejected(capsys, samples):
    assert main(["check", "orthant2", "--suite", "cone", "--samples", samples]) == 2
    assert "--samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "geometry, point",
    [("orthant2", "-1,-2"), ("lorentz3", "1,2,0"), ("sk_conic", "1,-1,0.3,0.4")],
)
def test_eval_outside_domain_rejected(capsys, geometry, point):
    assert main(["eval", geometry, "g", f"--at={point}"]) == 2
    assert "outside the domain" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["1,1,nan,0", "inf,1", "1,-inf,0,0"])
def test_eval_nonfinite_point_rejected(capsys, point):
    assert main(["eval", "orthant2", "gr", f"--at={point}"]) == 2
    assert "point coordinates must be finite" in capsys.readouterr().err


def test_eval_at_the_pole_of_the_rescaled_metric_rejected(capsys):
    # g_chK = g(xi, xi)^{-1} g_c with xi(q) = q; at q = 0 it printed inf and nan
    assert main(["eval", "sk_flat", "g_chk", "--at=0,0"]) == 2
    assert "g(xi, xi) = 0.0" in capsys.readouterr().err


def test_eval_rescaled_metric_needs_a_homothetic_field(capsys):
    # sk_cubic has no homothetic field, so g_chK has no meaning there
    assert main(["eval", "sk_cubic", "g_chk", "--at=0.1,-0.495"]) == 2
    assert "tensor 'g_chk' is not available" in capsys.readouterr().err


@pytest.mark.parametrize(
    "F, box",
    [("i*z1^2/2", [[-1.0, 1.0], [-1.0, 1.0]]), ("z1^3/6", [[-1.0, 1.0], [0.5, 1.5]])],
    ids=["flat", "cubic"],
)
def test_config_name_does_not_choose_suites(tmp_path, capsys, F, box):
    # the suites and isometries of a config follow its content, never its
    # free-text name, even when that name is a preset's
    outcomes = []
    for name in ("sk_flat", "sk_cubic", "other"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "m": 1, "F": F, "box": box}))
        code = main(["check", str(path), "--samples", "5", "--json"])
        outcomes.append((code, json.loads(capsys.readouterr().out)["entries"]))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def _count_validations(monkeypatch):
    counts = {"hessian": 0, "selfsimilar": 0}
    for key, cls in (
        ("hessian", structures.HessianStructure),
        ("selfsimilar", structures.SelfsimilarHessianStructure),
    ):
        def counted(self, *args, _key=key, _validate=cls.validate, **kwargs):
            counts[_key] += 1
            return _validate(self, *args, **kwargs)

        monkeypatch.setattr(cls, "validate", counted)
    return counts


def test_cone_check_builds_each_structure_once(monkeypatch):
    counts = _count_validations(monkeypatch)
    run_check("orthant2", ["all"], None, 42)
    # g_can and g_con, then (g_con, xi) on the same g_con
    assert counts == {"hessian": 2, "selfsimilar": 1}


@pytest.mark.parametrize("geometry", ["orthant2", "lorentz3", "spd2"])
def test_cone_check_makes_one_jet_per_distinct_point(monkeypatch, geometry):
    calls = []
    jet3 = ScalarExpression.jet3

    def counted(expr, p):
        calls.append((id(expr), np.asarray(p).tobytes()))
        return jet3(expr, p)

    monkeypatch.setattr(ScalarExpression, "jet3", counted)
    run_check(geometry, ["all"], None, 42)
    # 6,340 calls for these 1,800 pairs when each field evaluation made its own jet
    assert len(calls) == len(set(calls)) == 1800


def test_special_kahler_check_assembles_one_frame_per_point(monkeypatch):
    calls = []
    build = cmap.build_hyperkahler

    def counted(sk, q, p=None):
        calls.append(np.asarray(q).tobytes())
        return build(sk, q, p)

    monkeypatch.setattr(cmap, "build_hyperkahler", counted)
    run_check("sk_conic", ["all"], None, 42)
    # 400 assemblies when each check and the rescaled metric had their own frame
    assert len(calls) == len(set(calls)) == 100


def test_field_config_validates_selfsimilar_once(tmp_path, monkeypatch):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({**HESSIAN_CONFIG, **FIELD}))
    counts = _count_validations(monkeypatch)
    run_check(str(path), ["all"], 5, 42, fd_check=True)
    assert counts == {"hessian": 1, "selfsimilar": 1}


def test_report_states_the_seed_of_its_config(tmp_path, capsys):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({**HESSIAN_CONFIG, **FIELD, "seed": 5}))
    reports = []
    for seed in ("42", "7"):
        assert main(["check", str(path), "--samples", "3", "--seed", seed, "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["seed"] == 5


def test_cli_import_leaves_scipy_out():
    code = "import sys, hessgeo.cli; assert 'scipy' not in sys.modules"
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_eval_negative_coordinates_need_equals_form(capsys):
    assert main(["eval", "noncone_counterexample", "g", "--at=-1,-1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [[1.0, 0.0], [0.0, 2.0]]
    with pytest.raises(SystemExit) as exc:
        main(["eval", "noncone_counterexample", "g", "--at", "-1,-1"])
    assert exc.value.code == 2
