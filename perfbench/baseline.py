"""Traced per-stage medians next to the ROADMAP "Baseline" table.

A sanity check that the harness times the same work as the one-off
measurements taken when the ROADMAP was written, not a gate: a stage more
than 2x away from the table is flagged in the printout and nothing else.
"""

from __future__ import annotations

import statistics

# ms, copied from the ROADMAP "Baseline" table.  decompose and run_all on
# M5(Q), M5(F101) and M6(Q) have no rung in the maps workload.
TABLE = {
    "algebra.is_alternative": {"M4Q": 420, "M5Q": 2291, "M5F101": 392},
    "peirce.nucleus": {"M4Q": 829, "M5Q": 5533, "M5F101": 885},
    "peirce.peirce_decompose": {"M4Q": 5, "M5Q": 12, "M5F101": 3, "M6Q": 24},
    "peirce.center": {"M4Q": 16, "M5Q": 53, "M5F101": 7, "M6Q": 182},
    "commuting.decompose": {"M4Q": 35},
    "lemmas.run_all": {"M4Q": 80},
}
# Stages timed on the maps workload's commuting maps, all on M4(Q); the
# rest are timed on the structure workload's rungs.
MAPS_STAGES = {"commuting.decompose", "lemmas.run_all"}


def _rung(stage: str, op_name: str):
    if stage in MAPS_STAGES:
        return "M4Q" if op_name == "maps.commuting" else None
    if op_name.startswith("structure.rung."):
        return op_name[len("structure.rung."):]
    return None


def compare(spans) -> list[str]:
    """Lines of the comparison for the stages this trace covers."""
    op_names = {op: name for name, _, _, parent, op in spans if parent < 0}
    samples = {}
    for name, start, end, _, op in spans:
        if name not in TABLE:
            continue
        rung = _rung(name, op_names[op])
        if rung in TABLE[name]:
            samples.setdefault((name, rung), []).append((end - start) / 1e6)
    lines = []
    for (stage, rung), values in sorted(samples.items()):
        measured = statistics.median(values)
        table = TABLE[stage][rung]
        ratio = measured / table
        flag = "  FLAG: more than 2x off" if not 0.5 <= ratio <= 2.0 else ""
        lines.append(f"baseline {rung:7} {stage:26} measured {measured:9.1f} ms  "
                     f"table {table:6} ms  ratio {ratio:5.2f}{flag}")
    return lines
