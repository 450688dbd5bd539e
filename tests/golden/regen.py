"""Golden reports: the recorded output of a fixed set of `hessgeo` runs.

Each run is stored in `reports/` as one JSON file holding its argument list,
its exit code and its JSON output, a check report or an `eval` matrix.  The
runs, for every built-in geometry and every config in this directory:

* `check G --json` at seeds 42 and 7;
* `check G --fd-check --samples 10 --json`;
* every `eval` tensor G offers: a base tensor at a base point, a bundle
  tensor at that point (zero fiber) and at a bundle point;

plus `check sk_flat --seed 4 --json`, with and without `--fd-check`.  They run
in this directory, where the configs are named by their file names.

    python tests/golden/regen.py           # rewrite the corpus
    python tests/golden/regen.py --check   # print each changed entry; exit 1 on any change

The comparison rule: exit codes, ids, claims, tolerances, sample counts,
statuses and verdicts must be equal.  Two residuals match when they are
equal, or both lie below 1e-6 x the tolerance, or they differ by at most 1e-9
relative; the numbers of an `eval` matrix match when they are equal or differ
by at most 1e-9 relative.  The round-off allowance is for other numpy or BLAS
builds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPORTS = HERE / "reports"
CONFIGS = ("plain.json", "field.json", "sk_direct.json", "prepotential.json")

# a point of each geometry's domain; a bundle point appends FIBER[:n]
BASE_POINTS = {
    "orthant2": "1,1.5",
    "orthant3": "1,1.5,0.8",
    "lorentz3": "2,0.3,-0.2",
    "spd2": "1.2,0.1,0.9",
    "sk_flat": "0.3,-0.2",
    "sk_cubic": "0.1,-0.495",
    "sk_conic": "1,1.05,-0.079,0.129",
    "noncone_counterexample": "0.5,0.75",
    "plain.json": "1,1.5",
    "field.json": "1,1.5",
    "sk_direct.json": "0.3,-0.2",
    "prepotential.json": "0.3,-0.2",
}
FIBER = ("0.5", "-0.25", "0.75", "-1")


def runs():
    """The argument lists of every recorded run, in a fixed order."""
    from hessgeo.cli import EVAL_TENSORS, GEOMETRY_NAMES, KINDS, resolve_geometry

    out = []
    for geometry in GEOMETRY_NAMES + CONFIGS:
        for seed in ("42", "7"):
            out.append(["check", geometry, "--seed", seed, "--json"])
        out.append(["check", geometry, "--fd-check", "--samples", "10", "--json"])
    out.append(["check", "sk_flat", "--seed", "4", "--json"])
    out.append(["check", "sk_flat", "--seed", "4", "--fd-check", "--json"])
    for geometry in GEOMETRY_NAMES + CONFIGS:
        with _inside(HERE):
            kind, obj = resolve_geometry(geometry, 42, 100)
        tensors = KINDS[kind].tensors
        base = BASE_POINTS[geometry]
        bundle = ",".join([base, *FIBER[: base.count(",") + 1]])
        for tensor in (t for t in EVAL_TENSORS if t in tensors):
            # a field of the geometry's dimension lives on the base, any other on the bundle
            points = (base,) if tensors[tensor](obj).dim == obj.dim else (base, bundle)
            out.extend(["eval", geometry, tensor, f"--at={at}", "--json"] for at in points)
    return out


def path_of(argv):
    """The corpus file of a run: its arguments, without `--json`, joined by '_'."""
    tokens = (re.sub(r"^-+|\.json$", "", token) for token in argv if token != "--json")
    return REPORTS / ("_".join(re.sub(r"[^\w.,-]", "_", t) for t in tokens) + ".json")


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run(argv):
    """{argv, exit, output} of one in-process `hessgeo` run in this directory."""
    from hessgeo.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with _inside(HERE), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    text = stdout.getvalue()
    return {"argv": list(argv), "exit": code, "output": json.loads(text) if text else None}


def load(argv):
    """The recorded run of `argv`."""
    return json.loads(path_of(argv).read_text())


def numbers_match(a, b, floor=0.0):
    """Equal (NaN matching NaN), both below `floor`, or at most 1e-9 apart relative."""
    if a == b or (a != a and b != b):
        return True
    return (abs(a) < floor and abs(b) < floor) or abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def compare(old, new):
    """The differences of `new` from the recorded `old` under the comparison
    rule, one line each; empty when they match."""
    if old["exit"] != new["exit"]:
        return [f"exit {old['exit']} -> {new['exit']}"]
    a, b = old["output"], new["output"]
    if isinstance(a, dict) and isinstance(b, dict):
        return _compare_reports(a, b)
    return _compare_matrices(a, b)


def _compare_reports(a, b):
    diffs = [
        f"{key}: {a.get(key)!r} -> {b.get(key)!r}"
        for key in sorted((set(a) | set(b)) - {"entries"})
        if a.get(key) != b.get(key)
    ]
    ids_a = [e["check_id"] for e in a["entries"]]
    ids_b = [e["check_id"] for e in b["entries"]]
    if ids_a != ids_b:
        diffs += [f"{cid}: removed" for cid in ids_a if cid not in ids_b]
        diffs += [f"{cid}: added" for cid in ids_b if cid not in ids_a]
        return diffs or [f"entry order {ids_a} -> {ids_b}"]
    for e, f in zip(a["entries"], b["entries"]):
        for key in sorted(set(e) | set(f)):
            if key == "residual":
                same = numbers_match(e[key], f[key], 1e-6 * e["tolerance"])
            else:
                same = e.get(key) == f.get(key)
            if not same:
                diffs.append(f"{e['check_id']}.{key}: {e.get(key)!r} -> {f.get(key)!r}")
    return diffs


def _compare_matrices(a, b):
    if not isinstance(a, list) or not isinstance(b, list):
        return [] if a == b else [f"output {a!r} -> {b!r}"]
    if [len(row) for row in a] != [len(row) for row in b]:
        return [f"shape {[len(row) for row in a]} -> {[len(row) for row in b]}"]
    return [
        f"[{i}][{j}]: {x!r} -> {y!r}"
        for i, (row_a, row_b) in enumerate(zip(a, b))
        for j, (x, y) in enumerate(zip(row_a, row_b))
        if not numbers_match(x, y)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the corpus instead of rewriting it; exit 1 on any change",
    )
    args = parser.parse_args(argv)
    all_runs = runs()
    expected = {path_of(argv) for argv in all_runs}
    stale = sorted(p for p in REPORTS.glob("*.json") if p not in expected)
    changed = 0
    if not args.check:
        REPORTS.mkdir(exist_ok=True)
        for path in stale:
            path.unlink()
        for argv in all_runs:
            path_of(argv).write_text(json.dumps(run(argv), indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(all_runs)} runs to {REPORTS}")
        return 0
    for path in stale:
        print(f"{path.name}: no longer a run of the corpus")
        changed += 1
    for argv in all_runs:
        path = path_of(argv)
        if not path.exists():
            print(f"{path.name}: not in the corpus")
            changed += 1
            continue
        diffs = compare(load(argv), run(argv))
        if diffs:
            changed += 1
            print(f"{path.name}: {' '.join(argv)}")
            for line in diffs:
                print(f"  {line}")
    print(f"{len(all_runs)} runs, {changed} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    # the package of this checkout, not an installed copy
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
