"""Spans and counters recorded from outside altcomm, around its public calls.

A traced run wraps each hooked function wherever altcomm looks it up: the
defining module, the package namespace, and every module that re-bound the
name with ``from ... import`` (``commuting``, ``lemmas``, ``cli``).  Methods
are wrapped on their class.  Nothing inside altcomm changes; ``uninstall``
puts every original object back, and ``originals_intact`` proves it.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans and
counters stay in memory and are written out once, when the run ends.
Recording happens only between ``begin_op`` and ``end_op``, so input
generation and output checks never show up in the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# (module, attribute, span name): plain functions, rebound in every altcomm
# module namespace that holds the same object.
SPAN_FUNCTIONS = [
    ("altcomm.algebra", "is_alternative", "algebra.is_alternative"),
    ("altcomm.peirce", "nucleus", "peirce.nucleus"),
    ("altcomm.peirce", "center", "peirce.center"),
    ("altcomm.peirce", "peirce_decompose", "peirce.peirce_decompose"),
    ("altcomm.peirce", "check_peirce_relations", "peirce.check_peirce_relations"),
    ("altcomm.peirce", "hypothesis_check", "peirce.hypothesis_check"),
    ("altcomm.peirce", "center_via_peirce", "peirce.center_via_peirce"),
    ("altcomm.peirce", "lift_central", "peirce.lift_central"),
    ("altcomm.peirce", "prime_check_exhaustive", "peirce.prime_check_exhaustive"),
    ("altcomm.commuting", "is_commuting", "commuting.is_commuting"),
    ("altcomm.commuting", "decompose", "commuting.decompose"),
    ("altcomm.commuting", "decompose_oracle", "commuting.decompose_oracle"),
    ("altcomm.commuting", "random_commuting_map", "commuting.random_commuting_map"),
    ("altcomm.commuting", "exhaustive_commuting_check",
     "commuting.exhaustive_commuting_check"),
    ("altcomm.lemmas", "run_all", "lemmas.run_all"),
    ("altcomm._modscan", "batched_rank", "modscan.batched_rank"),
    ("altcomm.cli", "load_algebra_arg", "cli.load"),
    ("altcomm.cli", "parse_element", "cli.load"),
    ("altcomm.cli", "emit", "cli.emit"),
]
# Called too often for a span each: counted only.
COUNT_FUNCTIONS = [
    ("altcomm.peirce", "is_central", "peirce.is_central"),
]
# Generators whose yielded rows are the elements a scan enumerated.
CHUNK_FUNCTIONS = [
    ("altcomm._modscan", "element_chunks", "modscan.elements"),
    ("altcomm._modscan", "projective_chunks", "modscan.elements"),
]
# (module, class, method, name, kind)
METHODS = [
    ("altcomm.linalg", "Matrix", "rref", "linalg.rref", "span"),
    ("altcomm.linalg", "Matrix", "solve", "linalg.solve", "span"),
    ("altcomm.linalg", "Matrix", "matvec", "linalg.matvec", "count"),
    ("altcomm.linalg", "Matrix", "__matmul__", "linalg.matmul", "count"),
    ("altcomm.algebra", "Algebra", "mul_coords", "algebra.mul_coords", "count"),
    ("altcomm.algebra", "Algebra", "from_dict", "algebra.from_dict", "span"),
]


def _altcomm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "altcomm" or name.startswith("altcomm."))]


def _function_sites(table):
    """(original, name, [(module, attribute), ...]) for each loaded table entry.

    Only modules already imported are covered, so the CLI module appears in
    the process that runs the CLI and not in the in-process workloads.
    """
    modules = _altcomm_modules()
    loaded = {m.__name__: m for m in modules}
    out = []
    for mod_name, attr, name in table:
        if mod_name in loaded:
            original = getattr(loaded[mod_name], attr)
            where = [(mod, key) for mod in modules
                     for key, value in vars(mod).items() if value is original]
            out.append((original, name, where))
    return out


def _class_of(mod_name: str, cls_name: str) -> type:
    return getattr(importlib.import_module(mod_name), cls_name)


def hook_sites():
    """Every (owner, attribute) a traced run rebinds, with its current object."""
    sites = {}
    for table in (SPAN_FUNCTIONS, COUNT_FUNCTIONS, CHUNK_FUNCTIONS):
        for original, _, where in _function_sites(table):
            sites.update((site, original) for site in where)
    for mod_name, cls_name, meth, _, _ in METHODS:
        cls = _class_of(mod_name, cls_name)
        sites[(cls, meth)] = cls.__dict__[meth]
    return sites


def originals_intact(snapshot) -> bool:
    """True when every site in a hook_sites() snapshot holds its original object."""
    for (owner, attr), original in snapshot.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if current is not original:
            return False
    return True


class Tracer:
    """In-memory span and counter store with install/uninstall of the hooks."""

    def __init__(self):
        self.spans = []
        self.sums = {}
        self.maxima = {}
        self.stack = []
        self.op = -1
        self.active = False
        self._undo = []

    # ------------------------------------------------------------------
    # recording

    def add(self, key: str, amount) -> None:
        self.sums[key] = self.sums.get(key, 0) + amount

    def high(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def begin_op(self, name: str) -> None:
        self.op += 1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, -1, self.op])
        self.active = True

    def end_op(self) -> int:
        self.active = False
        idx = self.stack.pop()
        self.spans[idx][2] = perf_counter_ns()
        self.stack.clear()
        return idx

    def merge(self, data: dict, parent: int) -> None:
        """Attach spans and counters written by a child process under one span."""
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, end, par, _ in data["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else base + par, op])
        for key, value in data["sums"].items():
            self.add(key, value)
        for key, value in data["maxima"].items():
            self.high(key, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "sums": self.sums, "maxima": self.maxima}

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _count(self, name, fn):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.sums[key] = tracer.sums.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _chunks(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.active:
                    block = item[1] if isinstance(item, tuple) else item
                    tracer.add(name, block.shape[0])
                yield item
        return wrapper

    def _after_rref(self, args, out):
        m = args[0]
        self.add("linalg.rref.rows", m.rows)
        self.add("linalg.rref.cells", m.rows * m.cols)
        self.add("linalg.rref.rank", len(out[1]))
        self.high("linalg.rref.max_rows", m.rows)

    def _after_batched_rank(self, args, out):
        mats = args[0]
        # prime_check_exhaustive ranks square left-multiplication matrices
        # first, then the stacked (n*n, n) blocks of the survivors.
        stage = "first" if mats.shape[1] == mats.shape[2] else "second"
        self.add(f"modscan.batched_rank.rows_{stage}", mats.shape[0])

    # ------------------------------------------------------------------
    # install / uninstall

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("hooks already installed")
        after = {"modscan.batched_rank": self._after_batched_rank}
        for table, make in ((SPAN_FUNCTIONS, None), (COUNT_FUNCTIONS, self._count),
                            (CHUNK_FUNCTIONS, self._chunks)):
            for original, name, where in _function_sites(table):
                if make is None:
                    wrapped = self._span(name, original, after.get(name))
                else:
                    wrapped = make(name, original)
                for mod, key in where:
                    self._rebind(mod, key, wrapped)
        for mod_name, cls_name, meth, name, kind in METHODS:
            cls = _class_of(mod_name, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(name, raw.__func__))
            elif kind == "span":
                wrapped = self._span(name, raw,
                                     self._after_rref if meth == "rref" else None)
            else:
                wrapped = self._count(name, raw)
            self._rebind(cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def write_json(path, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
