"""One program process of the benchmark, started in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

`{"mode": "check", ...}` runs `hessgeo.cli.main(["check", ...])` once, as a
CLI invocation does.  `{"mode": "query", ...}` builds the point-query
structures once and answers a seeded stream of distinct points until its
time budget or query count is used up.  `{"mode": "setup", ...}` only
imports `hessgeo`.  Each prints one JSON line: the import and set-up times,
the timed results, the peak resident memory and, when traced, the tracer's
spans and totals.

Nothing is imported before the timed import of `hessgeo` except the
standard library, so the import time is what a CLI user pays.  The speed
probe (`speed.py`) runs once per block of queries, and in slices during an
untraced check; its time is kept out of every timed figure.  Set-up is
timed twice: in wall-clock time and in processor time (user plus system, of
every thread of the process).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

BLOCK_PAIRS = 50  # query pairs per block; one block is one pass of point_query
SALT_BASE = 10_000  # query draws use salts no check of the package uses
FRAME_TOLERANCE = 1e-8


def import_hessgeo(root):
    """Import `hessgeo.cli` from `root/src`; (wall s, processor s)."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    wall, cpu = time.perf_counter(), time.process_time()
    import hessgeo.cli  # noqa: F401

    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if not os.path.abspath(hessgeo.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"hessgeo imported from {hessgeo.__file__}, not {src}")
    return wall, cpu


def make_tracer(spec):
    if not spec.get("trace"):
        return None
    from spans import Tracer

    tracer = Tracer(spec["run_id"])
    tracer.install()
    return tracer


def run_check(spec, tracer):
    from hessgeo import cli
    from speed import Sampler

    argv = ["check", spec["geometry"], "--json", "--seed", str(spec["seed"])]
    argv += spec.get("extra", [])
    if tracer is not None:
        tracer.geometry = spec["geometry"]
    out = io.StringIO()
    sampler = Sampler()
    with contextlib.redirect_stdout(out), contextlib.ExitStack() as stack:
        if tracer is None:  # in a traced run a slice would count in a span's time
            stack.enter_context(sampler)
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start - sampler.spent
    return {
        "check_s": elapsed,
        "exit": code,
        "report": out.getvalue(),
        "probe_s": sampler.probe_s,
    }


# -- point queries ---------------------------------------------------------


def metric_valid(G):
    import numpy as np

    if not np.all(np.isfinite(G)):
        return False
    if np.max(np.abs(G - G.T)) > 1e-12 * max(1.0, float(np.max(np.abs(G)))):
        return False
    return bool(np.min(np.linalg.eigvalsh(G)) > 0.0)


def frame_valid(frame):
    import numpy as np

    mats = (frame.gc, frame.I1, frame.I2, frame.I3)
    if not all(np.all(np.isfinite(M)) for M in mats):
        return False
    eye = np.eye(frame.I1.shape[0])
    defect = max(
        [float(np.max(np.abs(frame.I1 @ frame.I2 - frame.I3)))]
        + [float(np.max(np.abs(Ik @ Ik + eye))) for Ik in mats[1:]]
    )
    return defect <= FRAME_TOLERANCE


def run_queries(spec, tracer, started):
    import numpy as np

    from hessgeo import cmap, cones, rmap
    from speed import probe

    seed = spec["seed"]
    paused = tracer.suspended if tracer is not None else contextlib.nullcontext

    def label(geometry):
        if tracer is not None:
            tracer.geometry = geometry

    wall, cpu = time.perf_counter(), time.process_time()
    label("lorentz3")
    lift = rmap.build_kahler_lift(
        cones.preset("lorentz3").hessian_structure("can", seed=seed)
    )
    label("sk_conic")
    sk = cmap.special_kahler_preset("sk_conic", seed=seed)
    build_s, build_cpu_s = time.perf_counter() - wall, time.process_time() - cpu

    # Inputs come from the structures' own samplers, seeded by `seed` and a
    # salt per worker and block, and are drawn outside the timed region.
    # The frame does not depend on the fiber point p; it is drawn anyway.
    rng = np.random.default_rng([seed, SALT_BASE, spec["worker"]])
    deadline = started + spec.get("seconds", float("inf"))
    max_pairs = spec.get("pairs")
    metric_ns, frame_ns, blocks, probes = [], [], [], []
    failed = 0
    pairs = 0
    errors = []
    while not blocks or (
        time.perf_counter() < deadline and (max_pairs is None or pairs < max_pairs)
    ):
        salt = SALT_BASE * (2 + spec["worker"]) + len(blocks)
        with paused():
            xs = lift.sample_points(BLOCK_PAIRS, salt=salt)
            qs = sk.sample_points(BLOCK_PAIRS, salt=salt)
            probes += probe()
        ps = -1.0 + 2.0 * rng.random((BLOCK_PAIRS, sk.dim))
        block = 0
        for point, q, p in zip(xs, qs, ps):
            label("lorentz3")
            t0 = time.perf_counter_ns()
            try:
                G = lift.metric(point)
            except Exception as exc:
                G = None
                errors.append(repr(exc))
            t1 = time.perf_counter_ns()
            label("sk_conic")
            t2 = time.perf_counter_ns()
            try:
                frame = cmap.build_hyperkahler(sk, q, p)
            except Exception as exc:
                frame = None
                errors.append(repr(exc))
            t3 = time.perf_counter_ns()
            metric_ns.append(t1 - t0)
            frame_ns.append(t3 - t2)
            block += (t1 - t0) + (t3 - t2)
            failed += G is None or not metric_valid(G)
            failed += frame is None or not frame_valid(frame)
        blocks.append(block)
        pairs += BLOCK_PAIRS
    return {
        "build_s": build_s,
        "build_cpu_s": build_cpu_s,
        "metric_ns": metric_ns,
        "frame_ns": frame_ns,
        "block_ns": blocks,
        "probe_s": probes,
        "attempted": 2 * pairs,
        "failed": failed,
        "errors": errors[:5],
    }


def main():
    started = time.perf_counter()
    spec = json.loads(sys.argv[1])
    wall, cpu = import_hessgeo(spec["root"])
    out = {"import_s": wall, "import_cpu_s": cpu}
    tracer = make_tracer(spec)
    if spec["mode"] == "check":
        out.update(run_check(spec, tracer))
    elif spec["mode"] == "query":
        out.update(run_queries(spec, tracer, started))
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.dump()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
