import json

import numpy as np
import pytest

from hessgeo import structures
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


def test_fd_check_covers_special_kahler_suites(capsys):
    code = main(["check", "sk_conic", "--samples", "5", "--fd-check", "--json"])
    assert code == 0
    entries = {e["check_id"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
    for check_id in FRAME_DERIVATIVE_CHECKS:
        assert entries[f"{check_id}__fd_delta"]["pass"], check_id


@pytest.mark.parametrize(
    "geometry, seed, expected",
    [(name, 42, 1 if name == "noncone_counterexample" else 0) for name in GEOMETRY_NAMES]
    + [("sk_flat", 4, 0)],
)
def test_default_check_exit_codes(geometry, seed, expected):
    assert main(["check", geometry, "--seed", str(seed)]) == expected


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


def test_field_config_validates_selfsimilar_once(tmp_path, monkeypatch):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({**HESSIAN_CONFIG, **FIELD}))
    counts = _count_validations(monkeypatch)
    run_check(str(path), ["all"], 5, 42, fd_check=True)
    assert counts == {"hessian": 1, "selfsimilar": 1}


def test_eval_negative_coordinates_need_equals_form(capsys):
    assert main(["eval", "noncone_counterexample", "g", "--at=-1,-1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [[1.0, 0.0], [0.0, 2.0]]
    with pytest.raises(SystemExit) as exc:
        main(["eval", "noncone_counterexample", "g", "--at", "-1,-1"])
    assert exc.value.code == 2
