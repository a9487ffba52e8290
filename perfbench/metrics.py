"""Names, units and computation of the per-layer metrics of a traced run.

Every per-layer metric is a run total divided by the ops completed, so it
does not depend on run length.  The exceptions name one kind of op and are
the mean over the ops of that kind: ``structure.rung.<rung>.*`` per rung
certified, ``cli.cmd.<command>.*`` and ``cli.startup.*`` (``--help``) per
command run.  ``linalg.rref.max_rows`` is a maximum and the ratios and
rates are taken over the whole run.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

# Names only: neither module imports numpy or click at import time.
from workloads import cli as cli_workload
from workloads import structure as structure_workload

# Spans with a .ms and a .self_ms metric each (time per op).
LAYER_SPANS = [
    "algebra.from_dict", "algebra.is_alternative",
    "peirce.nucleus", "peirce.center", "peirce.peirce_decompose",
    "peirce.check_peirce_relations", "peirce.hypothesis_check",
    "peirce.center_via_peirce", "peirce.lift_central",
    "linalg.rref", "linalg.solve",
    "commuting.is_commuting", "commuting.decompose", "commuting.decompose_oracle",
    "commuting.random_commuting_map", "commuting.exhaustive_commuting_check",
    "lemmas.run_all",
    "peirce.prime_check_exhaustive", "modscan.batched_rank",
    "cli.load", "cli.emit",
]
# Calls per op: spans counted by name, plain counters by their .calls key.
SPAN_CALLS = ["peirce.lift_central", "linalg.rref", "linalg.solve",
              "commuting.is_commuting", "modscan.batched_rank"]
COUNTED_CALLS = ["algebra.mul_coords", "peirce.is_central", "linalg.matvec",
                 "linalg.matmul"]
# Op spans reported per op of that kind: metric prefix -> op span name.
OP_KINDS = {f"structure.rung.{r}": f"structure.rung.{r}" for r in structure_workload.RUNGS}
OP_KINDS["cli.startup"] = "cli.cmd.help"
OP_KINDS.update({f"cli.cmd.{c}": f"cli.cmd.{c}" for c in cli_workload.COMMANDS
                 if c != "help"})


def declared() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    out = []
    for name in LAYER_SPANS:
        out.append({"name": f"{name}.ms", "unit": "ms", "better": "lower"})
        out.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
    for name in SPAN_CALLS + COUNTED_CALLS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    out += [
        {"name": "linalg.rref.cells", "unit": "count", "better": "lower"},
        {"name": "linalg.rref.max_rows", "unit": "count", "better": "lower"},
        {"name": "linalg.rref.rank_per_row", "unit": "ratio", "better": "higher"},
        {"name": "modscan.rank_filter_pass", "unit": "ratio", "better": "lower"},
        {"name": "modscan.elements_per_s", "unit": "1/s", "better": "higher"},
    ]
    for prefix in OP_KINDS:
        out.append({"name": f"{prefix}.ms", "unit": "ms", "better": "lower"})
        out.append({"name": f"{prefix}.self_ms", "unit": "ms", "better": "lower"})
    out.append({"name": "trace.overhead", "unit": "ratio", "better": "lower"})
    return out


def span_totals(spans):
    """name -> [count, total ns, self ns]; self time excludes direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        t = totals.setdefault(name, [0, 0, 0])
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child_ns[idx]
    return totals


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tracer, traced_records, untraced_records) -> dict:
    ops = len(traced_records)
    totals = span_totals(tracer.spans)
    sums = tracer.sums
    values = {}

    def span(name):
        return totals.get(name, [0, 0, 0])

    for name in LAYER_SPANS:
        _, total, own = span(name)
        values[f"{name}.ms"] = total / 1e6 / ops
        values[f"{name}.self_ms"] = own / 1e6 / ops
    for name in SPAN_CALLS:
        values[f"{name}.calls"] = span(name)[0] / ops
    for name in COUNTED_CALLS:
        values[f"{name}.calls"] = sums.get(f"{name}.calls", 0) / ops
    values["linalg.rref.cells"] = sums.get("linalg.rref.cells", 0) / ops
    values["linalg.rref.max_rows"] = tracer.maxima.get("linalg.rref.max_rows", 0)
    values["linalg.rref.rank_per_row"] = _ratio(sums.get("linalg.rref.rank", 0),
                                                sums.get("linalg.rref.rows", 0))
    values["modscan.rank_filter_pass"] = _ratio(
        sums.get("modscan.batched_rank.rows_second", 0),
        sums.get("modscan.batched_rank.rows_first", 0))
    scan_ns = (span("peirce.prime_check_exhaustive")[1]
               + span("commuting.exhaustive_commuting_check")[1])
    values["modscan.elements_per_s"] = _ratio(sums.get("modscan.elements", 0), scan_ns / 1e9)
    for prefix, op_span in OP_KINDS.items():
        count, total, own = span(op_span)
        values[f"{prefix}.ms"] = _ratio(total / 1e6, count)
        values[f"{prefix}.self_ms"] = _ratio(own / 1e6, count)
    traced_ms = sum(r.reference_ms for r in traced_records) / ops
    untraced_ms = sum(r.reference_ms for r in untraced_records) / len(untraced_records)
    values["trace.overhead"] = traced_ms / untraced_ms
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared()}
