"""Benchmark of `hessgeo check` and of single-point queries, end to end and
per layer.

    python3 perfbench/run.py --workload cone_check --seed 42 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports `hessgeo` from
`src/` and exits 2 if that is missing.  The load is a closed loop: one
client, one call at a time, and one program process at a time.

Workloads (each is one fixed list of operations, a "pass"):

* `cone_check`: `hessgeo check G --json --seed S` for the four cone presets
  and the non-Hessian counterexample, each in a fresh interpreter.  The
  tangent side: real jets, rejection sampling, validation, cones, rmap.
  `cmap` does no work, so it bypasses every T*M optimisation.
* `sk_check`: the same for sk_flat, sk_cubic and sk_conic: complex jets,
  Newton inversion, Darboux assembly and the FD-only checks.  sk_flat runs
  at its default 100 samples; at seed 42 its known chk_metric_flow defect
  sits at sample 70 and must show.  A default `check sk_conic` takes about
  a minute, longer than one run, so sk_cubic and sk_conic run with
  `--samples 5`, and one pass fits in a 40 s run.  After each check two
  more fresh interpreters only import `hessgeo`, to time the set-up more
  often.
* `point_query`: builds the lorentz3 g_can Kahler lift and the sk_conic
  structure once per worker process (that is the set-up), then alternates
  `lift.metric(x)` and `build_hyperkahler(sk, q, p)` on a seeded stream of
  distinct points.  Eight workers run one after another.

End-to-end metrics (`--trace 0`): `setup_s` (median processor time of
the import in the fresh processes, or of import plus structure build in the
query workers; the wall-clock figure is printed as `setup_wall_s`),
`wall_s` (median time of one pass; for point_query the mean time of a block
of 50 query pairs) and `peak_rss_mb` (largest program process).  `wall_s`
is given in reference seconds: the program processes also time the fixed
computation of `speed.py`, kept out of the timed figures, and a pass time is
scaled by `speed.REF_PROBE_S` over the mean probe time of its pass (of the
run for point_query), so that a slow stretch of the host does not read as a
slow program.  The measured figure is printed as `wall_raw_s`.

Every verdict is compared with `verdicts.INTENDED`; a mismatch or a
non-finite residual is a failed operation, as is a query that raises or
returns an invalid tensor.
`correct` is false when a report is missing, malformed, has the wrong
check ids or exit code, or differs between two runs of one geometry.

A traced run (`--trace 1`) runs each check once untraced and then once
traced (point_query: four workers, untraced and traced in turn) and prints
the per-layer metrics from the traced runs, the per-geometry times from the
untraced ones, and `trace.overhead`.  All spans are written to
`perfbench/out/` at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

from speed import REF_PROBE_S
from verdicts import INTENDED, intended_checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CHILD_TIMEOUT = 170.0
QUERY_WORKERS = 8

CHECK_PLANS = {
    "cone_check": (
        ("orthant2", ()),
        ("orthant3", ()),
        ("lorentz3", ()),
        ("spd2", ()),
        ("noncone_counterexample", ()),
    ),
    "sk_check": (
        ("sk_flat", ()),
        ("sk_cubic", ("--samples", "5")),
        ("sk_conic", ("--samples", "5")),
    ),
}
# import-only processes after each check process of an untraced run
IMPORT_ONLY = {"cone_check": 0, "sk_check": 2}
WORKLOADS = tuple(CHECK_PLANS) + ("point_query",)

SUITES = {
    "orthant2": ("hessian", "rmap", "selfsimilar", "cone", "conformal"),
    "orthant3": ("hessian", "rmap", "selfsimilar", "cone", "conformal"),
    "lorentz3": ("hessian", "rmap", "selfsimilar", "cone", "conformal"),
    "spd2": ("hessian", "rmap", "selfsimilar", "cone", "conformal"),
    "noncone_counterexample": ("hessian", "rmap"),
    "sk_flat": ("cmap", "conformal"),
    "sk_cubic": ("cmap",),
    "sk_conic": ("cmap", "conformal"),
}
GEOMETRIES = tuple(SUITES)
SK_GEOMETRIES = ("sk_flat", "sk_cubic", "sk_conic")
RMAP_CHECKS = (
    "check_kahler",
    "check_potential_identity",
    "check_invariance_psi",
    "check_lemma_xi_items",
    "check_conformal_invariance",
)
CMAP_CHECKS = (
    "check_special_kahler_axioms",
    "check_hyperkahler",
    "check_invariance_psi_hat",
    "check_conformal_hyperkahler",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {f"check_s.{g}": "s" for g in GEOMETRIES}
    for kind in ("metric", "frame"):
        units[f"{kind}_query_us.p50"] = "us"
        units[f"{kind}_query_us.p99"] = "us"
        units[f"{kind}_query.count"] = "count"
    units["failed_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    units["expressions.parse.calls"] = "count"
    units["expressions.parse.self_s"] = "s"
    for layer in ("expressions.jet3_real", "expressions.jet3_complex"):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.us_per_call"] = "us"
    units.update(
        {
            "jets.ops.calls": "count",
            "jets.ops.self_s": "s",
            "jets.ops_per_jet3": "ratio",
            "tensors.fd.calls": "count",
            "tensors.fd.self_s": "s",
            "tensors.fd_share": "ratio",
            "tensors.ops.self_s": "s",
            "structures.sample.calls": "count",
            "structures.sample.accept_ratio": "ratio",
            "structures.validate.calls": "count",
            "structures.validate.self_s": "s",
            "cones.laws.self_s": "s",
            "cones.automorphism_samples.calls": "count",
        }
    )
    units.update({f"rmap.{c}.s": "s" for c in RMAP_CHECKS})
    units.update(
        {
            "cmap.darboux_eval.calls": "count",
            "cmap.darboux_eval.distinct": "count",
            "cmap.darboux_eval.reuse": "ratio",
            "cmap.darboux_eval.us_per_call": "us",
            "cmap.prepotential_jets.calls": "count",
            "cmap.prepotential_jets.per_eval": "ratio",
            "cmap.frame.calls": "count",
            "cmap.frame.self_s": "s",
        }
    )
    units.update({f"cmap.{c}.s": "s" for c in CMAP_CHECKS})
    units["cli.resolve.s"] = "s"
    for g, suites in SUITES.items():
        units.update({f"cli.suite_s.{g}.{s}": "s" for s in suites})
    units["report.render.s"] = "s"
    for g in SK_GEOMETRIES:
        units[f"cmap.darboux_eval.calls.{g}"] = "count"
        units[f"cmap.darboux_eval.distinct.{g}"] = "count"
        units[f"cmap.darboux_eval.reuse.{g}"] = "ratio"
        units[f"cmap.prepotential_jets.calls.{g}"] = "count"
    for g in GEOMETRIES:
        units[f"tensors.fd.calls.{g}"] = "count"
        units[f"tensors.fd_share.{g}"] = "ratio"
    return units


# -- running program processes ---------------------------------------------


def run_child(spec):
    """Run child.py in a fresh interpreter; (result, None) or (None, error)."""
    timeout = spec.get("seconds", 0.0) + CHILD_TIMEOUT
    command = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(lines[-1]), None


class Tally:
    """Attempted and failed operations, and whether every output was well formed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def fail(self, what, count=1, malformed=False):
        self.failed += count
        self.correct = self.correct and not malformed
        self.notes.append(what)

    def score_check(self, geometry, result, error):
        expected = intended_checks(geometry)
        if result is None:
            self.attempted += len(expected)
            self.fail(f"{geometry}: no report ({error})", len(expected), True)
            return
        try:
            report = json.loads(result["report"])
            entries = {
                e["check_id"]: (e["pass"], float(e["residual"])) for e in report["entries"]
            }
        except (ValueError, KeyError, TypeError):
            self.attempted += len(expected)
            self.fail(f"{geometry}: malformed report", len(expected), True)
            return
        if sorted(entries) != expected or report.get("geometry") != geometry:
            self.correct = False
            self.notes.append(f"{geometry}: check ids differ from the table")
        if result["exit"] != (0 if report.get("pass") else 1):
            self.correct = False
            self.notes.append(f"{geometry}: exit {result['exit']} disagrees with the report")
        for check_id in sorted(set(expected) | set(entries)):
            self.attempted += 1
            passed, residual = entries.get(check_id, (None, math.nan))
            intended = INTENDED.get((geometry, check_id))
            if passed is None or intended is None:
                self.fail(f"{geometry}:{check_id} missing or unexpected")
            elif not math.isfinite(residual):
                self.fail(f"{geometry}:{check_id} non-finite residual")
            elif passed != intended:
                self.fail(
                    f"{geometry}:{check_id} pass={passed} (intended {intended}), "
                    f"residual {residual:.3e}"
                )


# -- workloads -------------------------------------------------------------


def check_once(geometry, extra, seed, run_id, traced, tally):
    spec = {
        "mode": "check",
        "root": str(ROOT),
        "geometry": geometry,
        "extra": list(extra),
        "seed": seed,
        "trace": traced,
        "run_id": f"{run_id}:{geometry}",
    }
    result, error = run_child(spec)
    tally.score_check(geometry, result, error)
    return result


def import_only(tally):
    """Import `hessgeo` in a fresh interpreter, to time the set-up once more."""
    result, error = run_child({"mode": "setup", "root": str(ROOT)})
    if result is None:
        tally.fail(f"set-up probe: {error}", malformed=True)
    return result


def speed_factor(probes):
    """Reference seconds per measured second, from the speed probe's times."""
    return REF_PROBE_S / statistics.fmean(probes) if probes else math.nan


def check_workload(name, seed, seconds, traced, run_id):
    plan = CHECK_PLANS[name]
    tally = Tally()
    start = time.perf_counter()
    passes, traced_pass, imports = [], {}, []
    while True:
        began = time.perf_counter()
        results, extra_imports = {}, []
        for geometry, extra in plan:
            results[geometry] = check_once(geometry, extra, seed, run_id, False, tally)
            if traced:  # right after its untraced twin, so both see the same machine load
                traced_pass[geometry] = check_once(geometry, extra, seed, run_id, True, tally)
            else:
                extra_imports += [import_only(tally) for _ in range(IMPORT_ONLY[name])]
        passes.append(results)
        imports.append([r for r in extra_imports if r])
        took = time.perf_counter() - began
        if traced or time.perf_counter() - start + took > seconds:
            break
    for geometry, _ in plan:
        reports = {p[geometry]["report"] for p in passes + [traced_pass] if p.get(geometry)}
        if len(reports) > 1:
            tally.correct = False
            tally.notes.append(f"{geometry}: report differs between runs")

    children = [r for p, i in zip(passes, imports) for r in list(p.values()) + i if r]
    # the speed probe's slices taken during the checks of each pass
    probes = [[t for r in p.values() if r for t in r["probe_s"]] for p in passes]
    complete = [k for k, p in enumerate(passes) if all(p.values())]
    raw_walls = [sum(r["check_s"] for r in passes[k].values()) for k in complete]
    walls = [w * speed_factor(probes[k]) for w, k in zip(raw_walls, complete)]
    setups = [(r["import_s"], r["import_cpu_s"]) for r in children]
    measured = {
        "setup_s": statistics.median(c for _, c in setups) if setups else math.nan,
        "wall_s": statistics.median(walls) if walls else math.nan,
        "peak_rss_mb": max((r["rss_kb"] for r in children), default=0) / 1024.0,
    }
    extra = {
        f"check_s.{g}": statistics.median(passes[k][g]["check_s"] for k in complete)
        for g, _ in plan
        if complete
    }
    extra["passes"] = len(passes)
    extra["setup.count"] = len(setups)
    extra["speed_factor"] = speed_factor([t for p in probes for t in p])
    if setups:
        extra["setup_wall_s"] = statistics.median(w for w, _ in setups)
    if raw_walls:
        extra["wall_raw_s"] = statistics.median(raw_walls)
    extra["samples"] = {
        "setup_cpu_s": [c for _, c in setups],
        "setup_wall_s": [w for w, _ in setups],
        "pass_s": raw_walls,
        "pass_ref_s": walls,
        "probe_s": probes,
        "check_s": {g: [passes[k][g]["check_s"] for k in complete] for g, _ in plan},
    }
    dumps = [r["trace"] for r in traced_pass.values() if r]
    if traced and raw_walls and all(traced_pass.values()):
        traced_wall = sum(r["check_s"] for r in traced_pass.values())
        extra["trace.overhead"] = traced_wall / raw_walls[0] - 1.0
    return tally, measured, extra, dumps


def query_workload(seed, seconds, traced, run_id):
    tally = Tally()
    # a traced run alternates untraced and traced workers, so that both see
    # the same machine load
    plan = [False, True] * 2 if traced else [False] * QUERY_WORKERS
    start = time.perf_counter()
    plain, dumps, traced_blocks = [], [], []
    for worker, trace in enumerate(plan):
        remaining = seconds - (time.perf_counter() - start)
        spec = {
            "mode": "query",
            "root": str(ROOT),
            "seed": seed,
            "worker": worker,
            "seconds": max(remaining / (len(plan) - worker), 1.0),
            "trace": trace,
            "run_id": f"{run_id}:worker{worker}",
        }
        result, error = run_child(spec)
        if result is None:
            tally.fail(f"query worker {worker}: {error}", malformed=True)
            continue
        tally.attempted += result["attempted"]
        if result["failed"]:
            tally.fail(f"worker {worker}: {result['failed']} invalid queries "
                       f"{result['errors']}", result["failed"])
        if trace:
            dumps.append(result["trace"])
            traced_blocks += result["block_ns"]
        else:
            plain.append(result)
    tally.attempted = max(tally.attempted, 1)
    blocks = [b for r in plain for b in r["block_ns"]]
    setups = [r["import_cpu_s"] + r["build_cpu_s"] for r in plain]
    probes = [t for r in plain for t in r["probe_s"]]
    factor = speed_factor(probes)
    # The mean, not the median, of the short blocks: the machine's speed
    # flips within seconds, so block times have two modes and their median
    # jumps between them while their mean follows the share of slow time,
    # as the mean of the probes, one per block, does.
    measured = {
        "setup_s": statistics.median(setups) if setups else math.nan,
        "wall_s": statistics.fmean(blocks) / 1e9 * factor if blocks else math.nan,
        "peak_rss_mb": max((r["rss_kb"] for r in plain), default=0) / 1024.0,
    }
    extra = {
        "setup.count": len(setups),
        "speed_factor": factor,
        "samples": {
            "setup_cpu_s": setups,
            "block_s": [b / 1e9 for b in blocks],
            "probe_s": probes,
        },
    }
    if plain:
        extra["setup_wall_s"] = statistics.median(r["import_s"] + r["build_s"] for r in plain)
    if blocks:
        extra["wall_raw_s"] = statistics.fmean(blocks) / 1e9
    for kind in ("metric", "frame"):
        samples = [ns / 1e3 for r in plain for ns in r[f"{kind}_ns"]]
        extra[f"{kind}_query.count"] = len(samples)
        if samples:
            extra[f"{kind}_query_us.p50"] = statistics.median(samples)
        if len(samples) >= 1000:  # at least ten samples beyond the p99
            extra[f"{kind}_query_us.p99"] = statistics.quantiles(samples, n=100)[98]
    if traced and blocks and traced_blocks:
        extra["trace.overhead"] = statistics.fmean(traced_blocks) / statistics.fmean(blocks) - 1.0
    return tally, measured, extra, dumps


# -- per-layer metrics from the traces -------------------------------------


def layer_metrics(dumps):
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    counters = defaultdict(lambda: defaultdict(int))
    distinct = defaultdict(int)
    for dump in dumps:
        for g, names in dump["totals"].items():
            for name, values in names.items():
                for i, v in enumerate(values):
                    totals[g][name][i] += v
        for g, counts in dump["counters"].items():
            for name, v in counts.items():
                counters[g][name] += v
        for g, v in dump["darboux_distinct"].items():
            distinct[g] += v

    def total(name, geometry=None):
        geometries = [geometry] if geometry else list(totals)
        return [sum(totals[g][name][i] for g in geometries if name in totals[g]) for i in range(3)]

    def counter(name, geometry=None):
        geometries = [geometry] if geometry else list(counters)
        return sum(counters[g].get(name, 0) for g in geometries)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def calls_and_self(layer, name=None):
        calls, _, self_ns = total(name or layer)
        m[f"{layer}.calls"] = calls
        m[f"{layer}.self_s"] = self_ns / 1e9

    calls_and_self("expressions.parse")
    for layer in ("expressions.jet3_real", "expressions.jet3_complex"):
        calls_and_self(layer)
        m[f"{layer}.us_per_call"] = ratio(total(layer)[1] / 1e3, total(layer)[0])
    calls_and_self("jets.ops")
    m["jets.ops_per_jet3"] = ratio(
        m["jets.ops.calls"],
        m["expressions.jet3_real.calls"] + m["expressions.jet3_complex.calls"],
    )

    def fd_share(geometry=None):
        fd = total("tensors.fd", geometry)[0]
        return ratio(fd, fd + counter("tensors.analytic_derivative", geometry))

    calls_and_self("tensors.fd")
    m["tensors.fd_share"] = fd_share()
    m["tensors.ops.self_s"] = total("tensors.ops")[2] / 1e9
    m["structures.sample.calls"] = total("structures.sample")[0]
    m["structures.contains.draws"] = total("structures.contains")[0]
    m["structures.contains.accepted"] = counter("structures.contains.accepted")
    m["structures.sample.accept_ratio"] = ratio(
        m["structures.contains.accepted"], m["structures.contains.draws"]
    )
    calls_and_self("structures.validate")
    m["cones.laws.self_s"] = total("cones.laws")[2] / 1e9
    m["cones.automorphism_samples.calls"] = total("cones.automorphism_samples")[0]
    for c in RMAP_CHECKS:
        m[f"rmap.{c}.s"] = total(f"rmap.{c}")[1] / 1e9
    calls, incl, _ = total("cmap.darboux_eval")
    m["cmap.darboux_eval.calls"] = calls
    m["cmap.darboux_eval.distinct"] = sum(distinct.values())
    m["cmap.darboux_eval.reuse"] = ratio(calls, sum(distinct.values()))
    m["cmap.darboux_eval.us_per_call"] = ratio(incl / 1e3, calls)
    m["cmap.prepotential_jets.calls"] = total("cmap.prepotential_jets")[0]
    m["cmap.prepotential_jets.per_eval"] = ratio(m["cmap.prepotential_jets.calls"], calls)
    calls_and_self("cmap.frame")
    for c in CMAP_CHECKS:
        m[f"cmap.{c}.s"] = total(f"cmap.{c}")[1] / 1e9
    m["cli.resolve.s"] = total("cli.resolve")[1] / 1e9
    for g, suites in SUITES.items():
        for s in suites:
            m[f"cli.suite_s.{g}.{s}"] = total(f"cli.suite_s.{g}.{s}", g)[1] / 1e9
    m["report.render.s"] = total("report.render")[1] / 1e9
    for g in SK_GEOMETRIES:
        calls = total("cmap.darboux_eval", g)[0]
        m[f"cmap.darboux_eval.calls.{g}"] = calls
        m[f"cmap.darboux_eval.distinct.{g}"] = distinct.get(g, 0)
        m[f"cmap.darboux_eval.reuse.{g}"] = ratio(calls, distinct.get(g, 0))
        m[f"cmap.prepotential_jets.calls.{g}"] = total("cmap.prepotential_jets", g)[0]
    for g in GEOMETRIES:
        m[f"tensors.fd.calls.{g}"] = total("tensors.fd", g)[0]
        m[f"tensors.fd_share.{g}"] = fd_share(g)
    return m


def work_counters(dumps):
    """The counts that must repeat exactly for the same code and seed."""
    m = layer_metrics(dumps)
    keys = (
        "expressions.jet3_real.calls",
        "expressions.jet3_complex.calls",
        "cmap.prepotential_jets.calls",
        "cmap.darboux_eval.calls",
        "cmap.darboux_eval.distinct",
        "tensors.fd.calls",
        "structures.contains.draws",
        "structures.contains.accepted",
    )
    return {k: m[k] for k in keys}


# -- context and output ----------------------------------------------------


def context(traced):
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_lines": src_lines,
        "traced": bool(traced),
    }


def write_outputs(name, seed, traced, payload, dumps):
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    if traced:
        with open(OUT_DIR / f"spans-{name}-seed{seed}.jsonl", "w") as handle:
            for dump in dumps:
                for span_id, span, start, end, parent, run_id in dump["spans"]:
                    handle.write(
                        json.dumps(
                            {"id": span_id, "name": span, "start_ns": start,
                             "end_ns": end, "parent": parent, "run": run_id}
                        )
                        + "\n"
                    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hessgeo" / "__init__.py").is_file():
        print(f"error: no hessgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    run_id = f"{args.workload}:seed{args.seed}:trace{args.trace}"
    if args.workload == "point_query":
        tally, measured, extra, dumps = query_workload(args.seed, args.seconds, traced, run_id)
    else:
        tally, measured, extra, dumps = check_workload(
            args.workload, args.seed, args.seconds, traced, run_id
        )
    if not all(math.isfinite(v) for v in measured.values()):
        print("error: no program process produced a result: " + "; ".join(tally.notes),
              file=sys.stderr)
        return 1
    samples = extra.pop("samples")
    extra["failed_share"] = tally.failed / max(tally.attempted, 1)
    if traced:
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        values.update(layer_metrics(dumps))
        values.update({k: v for k, v in extra.items() if k in units})
        extra["work_counters"] = work_counters(dumps)
        extra["trace_missing"] = sorted({m for d in dumps for m in d["missing"]})
    else:
        units = dict(END_TO_END)
        values = measured
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    facts = context(traced)
    write_outputs(
        args.workload,
        args.seed,
        traced,
        {"context": facts, "result": result, "measured": measured,
         "extra": extra, "samples": samples, "notes": tally.notes},
        dumps,
    )
    print(f"# context {json.dumps(facts, sort_keys=True)}")
    units = dict(per_layer_units(), setup_wall_s="s", wall_raw_s="s")
    units["setup.count"] = "count"
    units["speed_factor"] = "ratio"
    for key, value in sorted(extra.items()):
        kind, _, percentile = key.partition("_us.")
        count = f" (n={extra[kind + '.count']})" if percentile else ""
        print(f"# {key} = {json.dumps(value)} {units.get(key, '')}{count}".rstrip())
    for note in tally.notes:
        print(f"# note: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
