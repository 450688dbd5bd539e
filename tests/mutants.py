"""Source mutants that a preset check or a tier-1 test must kill.

Each mutant is (file of src/hessgeo, old text, new text, target...).  For each
one the runner copies `src/` to a temporary directory and replaces the old
text, which must occur exactly once, by the new.  The target is one of:

* a geometry, a check id and an optional argument tail: the runner runs
  `python -m hessgeo.cli check <geometry> <tail...> --json` against the copy
  and reads the entry of the check id; the mutant is killed when that entry is
  in the report and fails;
* a pytest node id (`tests/<file>.py::<test>`): the runner runs that test
  against the copy; the mutant is killed when the test fails.

The same run on the unmutated source must pass, or the mutant proves nothing.

    python tests/mutants.py    # exit 1 if a mutant survives or cannot be run
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MUTANTS = (
    # an empty sample must read NaN and fail, not pass at 0.0
    ("cmap.py", "            closed,\n", "            closed[:0],\n", "sk_flat", "hk_closed_forms"),
    # the Kahler form of TM with a symmetric, not antisymmetric, lower block
    (
        "rmap.py",
        "blocks(0, G, -G.swapaxes(-1, -2), 0)",
        "blocks(0, G, G.swapaxes(-1, -2), 0)",
        "orthant2",
        "kahler_closed",
    ),
    # I2 = [[0, w^{-1}], [w, 0]] squares to +Id
    ("cmap.py", "blocks(0, -winv, w, 0)", "blocks(0, winv, w, 0)", "sk_conic", "hk_quaternion"),
    # the derivative of g_c = diag(g, g^{-1}) with d(g^{-1}) = +g^{-1} dg g^{-1}
    ("cmap.py", "0, -ginv @ dg @ ginv)", "0, ginv @ dg @ ginv)", "sk_conic", "hk_closed_forms"),
    # the derivative of I1 = diag(I, I^T) taken as diag(dI, dI)
    ("cmap.py", "blocks(dI, 0, 0, dIT)", "blocks(dI, 0, 0, dI)", "sk_conic", "hk_closed_forms"),
    # the derivative of 1 / g(xi, xi) with the wrong sign
    ("structures.py", "[-f * f * norm_gradient", "[f * f * norm_gradient", "orthant2",
     "conformal_omega_ck_flow"),
    # the derivative of g(xi, xi) with half its Jacobian term
    ("structures.py", "return 2.0 * (s.xi", "return 1.0 * (s.xi", "lorentz3",
     "conformal_norm_homothety"),
    # lifted maps whose fiber part is B itself, not the fiber action of B (B^{-T} on T*M)
    ("tensors.py", "fiber_linear(T.A)), b))", "T.A), b))", "sk_conic", "hk_psi_hat_invariance"),
    # the derivative of f T with df (x) T subtracted, on TM and on T*M
    ("structures.py", "T.derivative(p) + np.einsum", "T.derivative(p) - np.einsum", "orthant2",
     "conformal_omega_ck_flow"),
    ("structures.py", "T.derivative(p) + np.einsum", "T.derivative(p) - np.einsum", "sk_conic",
     "chk_metric_flow"),
    # the lifted field of the conformal suite with no fiber part A y
    (
        "rmap.py",
        "    X = lift_field(ss.xi, ss.xi.A, ss.xi.b)\n    omega_ck",
        "    X = lift_field(ss.xi, 0 * ss.xi.A, ss.xi.b)\n    omega_ck",
        "orthant2",
        "conformal_omega_ck_flow",
    ),
    # the fiber part of the lifted field on T*M taken as A^T, not transported through w as
    # w A w^{-1}: the Euler field of every preset's conformal suite cannot tell them apart
    ("cmap.py", "w @ ss.xi.A @ winv", "ss.xi.A.T",
     "tests/test_cmap.py::test_conformal_hyperkahler_transports_a_non_euler_field_through_w"),
    # `blocks` with its lower-left block transposed: I2's w becomes w^T = -w, so I2^2 = +Id
    ("tensors.py", "out[..., n:, :n] = c", "out[..., n:, :n] = c.swapaxes(-1, -2)", "sk_cubic",
     "hk_quaternion"),
    # I3 read as I2 I1 = -I1 I2 from the frame bundle
    ("cmap.py", "lambda gc, I1, I2, *_: I1 @ I2,", "lambda gc, I1, I2, *_: I2 @ I1,", "sk_cubic",
     "hk_quaternion"),
    # dI3 read without its dI1 I2 term
    ("cmap.py", "dI1 @ I2[..., None, :, :] + I1", "I1", "sk_conic", "hk_closed_forms"),
    # the fiber rows of a lifted derivative copied from its base rows, not zero:
    # the T*M frame and the TM lift share them
    ("tensors.py", "[D, np.zeros_like(D)]", "[D, D]", "sk_conic", "hk_closed_forms"),
    ("tensors.py", "[D, np.zeros_like(D)]", "[D, D]", "orthant2", "conformal_omega_ck_flow"),
    # the two frame-derivative mutants above, killed as well by the audit of the field
    ("cmap.py", "0, -ginv @ dg @ ginv)", "0, ginv @ dg @ ginv)", "sk_conic", "gc__fd_audit",
     "--fd-check"),
    ("cmap.py", "blocks(dI, 0, 0, dIT)", "blocks(dI, 0, 0, dI)", "sk_conic", "I1__fd_audit",
     "--fd-check"),
    # a Nijenhuis tensor that is always zero: every shipped I is integrable, so no check can
    # tell, but the tensor of a nonintegrable J must not vanish
    ("tensors.py", "    return t1 - t2 - t3 + t4", "    return 0 * (t1 - t2 - t3 + t4)",
     "tests/test_tensors.py::test_nijenhuis_nonvanishing_for_scaled_structure"),
    # every matrix positive definite: no shipped structure has a point where one is not
    ("tensors.py", "    return bool(np.min(", "    return True or bool(np.min(",
     "tests/test_tensors.py::test_positive_definite_helpers"),
    # Not listed, because they are equivalent:
    # - Newton with half a step, `y = y + 0.5 * step` in cmap._newton_invert,
    #   converges to the same root (hk_quaternion on sk_cubic reads 3.0e-15).
    # - dI3 read without its I1 dI2 term: w = I^T g is the constant
    #   lambda Omega, so dI2 is zero up to round-off (hk_closed_forms on
    #   sk_conic reads 5.9e-14, chk_complex_structures_flow 4.4e-13).
)


def verdict(src, target):
    """(passed, detail) of the target run on the package in `src`, or None
    when the run gives no verdict: no report entry, or a test that did not run."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    if "::" in target[0]:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", target[0]],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        return (run.returncode == 0, f"pytest exit {run.returncode}") if run.returncode < 2 else None
    geometry, check_id, *tail = target
    run = subprocess.run(
        [sys.executable, "-m", "hessgeo.cli", "check", geometry, *tail, "--json"],
        capture_output=True, text=True, env=env, cwd=src,
    )
    try:
        entries = json.loads(run.stdout)["entries"]
    except ValueError:
        return None
    entry = next((e for e in entries if e["check_id"] == check_id), None)
    return None if entry is None else (entry["pass"], f"residual {entry['residual']!r}")


def mutate(file, old, new, workdir):
    """A copy of `src/` in `workdir` with `old` replaced by `new` in `file`."""
    copy = Path(workdir) / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "hessgeo" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{old!r} occurs {text.count(old)} times in {file}, not once")
    path.write_text(text.replace(old, new))
    return copy


def main():
    bad = 0
    unmutated = {}
    with tempfile.TemporaryDirectory() as workdir:
        for file, old, new, *target in MUTANTS:
            target = tuple(target)
            name = f"{file}: {old.strip()!r} -> {new.strip()!r} ({' '.join(target)})"
            if target not in unmutated:
                unmutated[target] = verdict(SRC, target)
            before = unmutated[target]
            try:
                after = verdict(mutate(file, old, new, workdir), target)
            except ValueError as exc:
                after, name = None, f"{name}: {exc}"
            if before is None or not before[0]:
                outcome = "UNMUTATED TARGET DOES NOT PASS"
            elif after is None:
                outcome = "NO VERDICT"
            elif after[0]:
                outcome = f"SURVIVED ({after[1]})"
            else:
                outcome = f"killed ({after[1]})"
            bad += not outcome.startswith("killed")
            print(f"{outcome}: {name}")
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
