"""altcomm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {structure,maps,scan,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src`` and nothing is installed.  Each workload is a closed loop with one
client in this one process (numpy's thread pools pinned to 1).  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, times at the reference speed (see ``harness``); with
``--trace 1`` untraced and traced rounds alternate and the metrics are the
per-layer ones plus the tracing overhead.  The lines before it give the
environment, the failure ratio, the same times in wall-clock terms, the
tail percentile used and, when traced, the comparison with the ROADMAP
Baseline table.  Spans of a traced run go to ``.perfbench_out/``.  Exit
code 2 means the benchmark could not run.
"""

import os
import sys

# Before anything imports numpy: one op at a time means one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (names only; workloads import altcomm lazily)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one altcomm benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="Measuring time; whole rounds run until it has passed "
                        "(structure always makes two and cli seven).")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    """Information only: nothing here is a metric or has a bound."""
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "altcomm" / "__init__.py").is_file():
        print(f"perfbench: no altcomm sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import baseline
    import harness
    import metrics
    import tracer

    workload = workloads.load(args.workload)
    snapshot = tracer.hook_sites()
    setup_s, wall_setup_s, state = harness.timed_setup(workload, args.seed, str(ROOT))
    tr = None
    try:
        if args.trace == 0:
            untraced = harness.measure(workload, state, args.seconds)
            traced = []
        else:
            tr = tracer.Tracer()
            untraced, traced = harness.measure_alternating(workload, state, args.seconds, tr)
    finally:
        harness.teardown(workload, state)
    intact = tracer.originals_intact(snapshot)
    records = untraced + traced
    failed = [r for r in records if r.errors]
    env = environment()

    print("env " + json.dumps(env, sort_keys=True))
    if not intact:
        print("error: hooked functions are not the original objects after the run")
    for rec in failed[:5]:
        print(f"failed op {rec.name}: {rec.errors[0].strip()}")
    print(f"fail_ratio {len(failed) / len(records):.6g} ({len(failed)}/{len(records)} ops)")
    if tr is None:
        result, info = harness.end_to_end(
            untraced, setup_s, harness.peak_rss_mb(children=args.workload == "cli"))
        print(f"wall clock (information): ops_per_s {info['wall_ops_per_s']:.6g}, "
              f"op_p50_ms {info['wall_op_p50_ms']:.6g}, op_tail_ms {info['wall_op_tail_ms']:.6g}, "
              f"setup_s {wall_setup_s:.6g}; median slowness {info['slowness_p50']:.4g}")
        print(f"op_tail_ms is p{info['tail_percentile']:.1f} of {info['samples']} ops, "
              f"{info['tail_samples_above']} above it")
    else:
        result = metrics.per_layer(tr, traced, untraced)
        for line in baseline.compare(tr.spans):
            print(line)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_json(path, {"workload": args.workload, "seed": args.seed, "env": env,
                                 "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                 **tr.dump()})
        print(f"spans written to {path.relative_to(ROOT)}")
    for name, m in result.items():
        if m["value"]:
            print(f"  {name:44} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": intact and not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
