"""Spans and counters recorded around calls into ``iterkg``, from outside.

The benchmark does not change the program: it replaces module attributes
with wrappers for the duration of one unit of work.  A wrapper must be
installed on the name the *caller* looks up.  ``iterkg.pipeline`` and
``iterkg.cli`` bind ``generate_pool``, ``train_epoch`` and friends at import
time, so those are wrapped in the importing module; calls made inside a
module through its own globals (``train_epoch`` -> ``sample_negatives``,
``inject_triples`` -> ``ground_axiom``) are wrapped in the defining module,
and the kernels in ``iterkg.kernels`` because callers reach them as
``kernels.<name>``.

A span is ``(id, parent, name, start, end)`` with ``perf_counter``
seconds.  Spans are kept in memory and written once the unit is done.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from typing import Callable, Optional

# layers whose self time is reported: the package's modules, ``blocks``
# counted under ``axioms``, and the CLI's own code
LAYERS = ("kg", "embedding", "kernels", "axioms", "injection", "evaluation", "pipeline", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, after: Optional[Callable] = None,
             span: bool = True) -> Callable:
        """``fn`` recording a span called ``name`` and counting its calls.

        ``after(tracer, result, args, kwargs)`` runs once ``fn`` returns,
        outside the span, to update counters.
        """
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if span:
                sid = len(self.spans)
                self.spans.append(None)  # reserve the id; filled on exit
                parent = self._stack[-1]
                self._stack.append(sid)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[sid] = (sid, parent, name, start, end)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None,
              span: bool = True) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after, span))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading the record -------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of spans called ``name``, not counting a span
        nested inside another of the same name."""
        names = [span[2] for span in self.spans]
        out = 0.0
        for sid, parent, n, s, e in self.spans:
            if n != name:
                continue
            while parent >= 0 and names[parent] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                out += e - s
        return out

    def first_start(self, names) -> Optional[float]:
        starts = [s for (_, _, n, s, _) in self.spans if n in names]
        return min(starts) if starts else None

    def self_times(self, lo: float, hi: float) -> dict[str, float]:
        """Self time per layer inside the window [lo, hi].

        A span's self time is its duration minus the part its children
        cover; spans are clipped to the window first, so the layers' self
        times add up to the window whenever a root span covers it.  A span
        named after a layer outside ``LAYERS`` raises, so no self time is
        left out of the sum.
        """
        child_time = [0.0] * len(self.spans)
        clipped = []
        for sid, parent, name, s, e in self.spans:
            d = max(0.0, min(e, hi) - max(s, lo))
            clipped.append(d)
            if parent >= 0:
                child_time[parent] += d
        out = {layer: 0.0 for layer in LAYERS}
        for sid, _, name, _, _ in self.spans:
            layer = name.split(".", 1)[0]
            if layer not in out:
                raise ValueError(f"span {name!r} names no layer in LAYERS")
            out[layer] += clipped[sid] - child_time[sid]
        return out

    def dump(self, path: str) -> None:
        """One JSON object per span, then one with the counters."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, s, e in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": s, "end": e}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counts": dict(self.counts)}) + "\n")
