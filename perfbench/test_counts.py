"""The traced work counters repeat exactly for the same code and seed.

    python3 perfbench/test_counts.py      (or: python3 -m pytest perfbench)

Checks that BENCHMARK.json lists the metrics the benchmark prints, then
runs the traced pass twice: every check of cone_check and sk_check with the
workloads' own arguments, and a point-query worker with a fixed number of
queries in place of a time budget.  It compares the counts of jet3 calls,
`Prepotential.jets` calls, Darboux evaluations and distinct points, FD
calls and domain draws.  These are counts, not speeds.  It takes about two
minutes.
"""

import json
import sys

import run

QUERY_PAIRS = 2 * 50


def traced_counts(seed):
    specs = [
        {"mode": "check", "geometry": geometry, "extra": list(extra)}
        for plan in run.CHECK_PLANS.values()
        for geometry, extra in plan
    ]
    specs.append({"mode": "query", "worker": 0, "pairs": QUERY_PAIRS})
    dumps = []
    for spec in specs:
        spec = dict(spec, root=str(run.ROOT), seed=seed, trace=True, run_id="counts")
        result, error = run.run_child(spec)
        if result is None:
            raise RuntimeError(f"{spec}: {error}")
        dumps.append(result["trace"])
    return run.work_counters(dumps)


def test_work_counters_repeat_exactly():
    first = traced_counts(42)
    second = traced_counts(42)
    assert first == second, (first, second)
    for key in (
        "expressions.jet3_real.calls",
        "expressions.jet3_complex.calls",
        "cmap.prepotential_jets.calls",
        "cmap.darboux_eval.calls",
        "cmap.darboux_eval.distinct",
        "tensors.fd.calls",
        "structures.contains.draws",
    ):
        assert first[key] > 0, key


def test_benchmark_json_lists_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


if __name__ == "__main__":
    test_benchmark_json_lists_every_metric()
    test_work_counters_repeat_exactly()
    print("ok: BENCHMARK.json matches, and the work counters repeat exactly")
    sys.exit(0)
