"""In-memory span tracing around the public functions of each ``horneq``
layer, for the benchmark's traced run.

The tracer patches names where the caller looks them up: ``cli`` binds
``parse_theory`` and ``pretty_print`` directly, so those are patched in
``cli``; everything else is reached through a module attribute (for
example ``engine.find_matches`` inside ``evaluate`` and ``_extends``), and
``Structure.merge`` / ``Structure.copy`` are patched on the class.  Patches
are installed only for traced passes, so untraced passes run the program
unmodified.

A span is (name, start, end, parent, job).  ``find_matches`` returns a
generator, so its wrapper records one span per resume of the generator:
the work happens there, not in the call that creates it.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, span name) for plain call wrappers; the module is
# looked up on the namespace passed to ``Tracer.install``.
_CALLS = (
    ("cli", "parse_theory", "syntax.parse"),
    ("cli", "pretty_print", "syntax.pretty_print"),
    ("classify", "flatten_theory", "classify.flatten"),
    ("classify", "classify_sequent", "classify.classify"),
    ("classify", "strengthen_theory", "classify.strengthen"),
    ("transform", "setoid_transform", "transform.setoid"),
    ("transform", "sparse_setoid_transform", "transform.sparse_setoid"),
    ("transform", "epic_transform", "transform.epic"),
    ("facts", "parse_facts", "facts.load"),
    ("facts", "model_names", "facts.names"),
    ("facts", "serialize_model", "facts.serialize"),
    ("engine", "evaluate", "engine.evaluate"),
    ("engine", "apply_match", "engine.apply"),
)

CLI_SPAN = "cli"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _call(self, fn, name: str, before=None, after=None):
        """Wrap ``fn`` in a span.  ``before(*args)`` runs ahead of the span;
        ``after(result)`` runs once the call has returned."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result)
            return result
        return traced

    # -- layer patches ---------------------------------------------------------

    def install(self, hq) -> None:
        """Patch the layers of the ``horneq`` modules held by ``hq`` (a
        namespace with attributes cli, classify, engine, facts, transform,
        core)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def count_iterations(result):
            counts["engine.iterations"] += result[2].iterations

        def count_firing(_changes):
            counts["engine.firings"] += 1

        def count_bytes(text):
            counts["facts.output_bytes"] += len(text.encode("utf-8"))

        def count_merge(x, a, b):
            if x.find(a) != x.find(b):
                counts["core.merges"] += 1

        def count_copy(_x):
            counts["core.copies"] += 1

        hooks = {"engine.evaluate": {"after": count_iterations},
                 "engine.apply": {"after": count_firing},
                 "facts.serialize": {"after": count_bytes}}
        for mod_name, attr, span in _CALLS:
            mod = getattr(hq, mod_name)
            self._patch(mod, attr, self._call(getattr(mod, attr), span,
                                              **hooks.get(span, {})))

        structure = hq.core.Structure
        self._patch(structure, "merge", self._call(
            structure.merge, "core.merge", before=count_merge))
        self._patch(structure, "copy", self._call(
            structure.copy, "core.copy", before=count_copy))

        find_matches = hq.engine.find_matches
        tracer = self

        @functools.wraps(find_matches)
        def traced_find_matches(f, x, delta=None, binding=None):
            if binding is None:
                name, counter = "engine.match", "engine.premise_matches"
            else:
                name, counter = "engine.extend", None
                counts["engine.extend_checks"] += 1
            gen = find_matches(f, x, delta, binding)

            def resumes():
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    if counter is not None:
                        counts[counter] += 1
                    yield item
            return resumes()
        self._patch(hq.engine, "find_matches", traced_find_matches)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived figures -----------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration (``total_s``), summed self time
        (``self_s``: duration minus the direct children's durations; spans
        nest strictly in one thread, so children never overlap) and
        ``spans``.  ``engine.match_in_eval`` and ``engine.apply_in_eval``
        hold the durations of match and extend spans, and of apply spans,
        directly under an evaluate span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {
            name: {"total_s": 0.0, "self_s": 0.0, "spans": 0}
            for name in self.names}
        evaluate_id = self._name_ids.get("engine.evaluate", -2)
        in_eval = {"engine.match_in_eval": {"engine.match", "engine.extend"},
                   "engine.apply_in_eval": {"engine.apply"}}
        in_eval_ids = {self._name_ids[child]: total
                       for total, children in in_eval.items()
                       for child in children if child in self._name_ids}
        in_eval_s = dict.fromkeys(in_eval, 0.0)
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["spans"] += 1
            p = self.parent[i]
            total = in_eval_ids.get(self.name[i])
            if total is not None and p >= 0 and self.name[p] == evaluate_id:
                in_eval_s[total] += dur[i]
        for total, d in in_eval_s.items():
            out[total] = {"total_s": d, "self_s": d, "spans": 0}
        return out

    def write(self, path: Path) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        doc = {"names": self.names,
               "columns": ["name", "start", "end", "parent", "job"],
               "name": self.name.tolist(), "start": self.start.tolist(),
               "end": self.end.tolist(), "parent": self.parent.tolist(),
               "job": self.job.tolist(), "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(doc, f)
