"""An in-memory span recorder that wraps functions from outside the package.

`Tracer.wrap` replaces a function wherever the package binds it: in its
defining module and in every module that imported it by name (for example
`codes.linmap_fq_matrix`).  Each call records a span (name, start, end,
parent index, attributes).  `restore` puts every original object back.
Worker processes are not traced: a scan that forks workers is one span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (name, start, end, parent index or -1, attributes or None)
Span = Tuple[str, float, float, int, Optional[dict]]
# attrs(bound arguments, result) -> attributes recorded on the span
AttrFn = Callable[[dict, object], dict]


PACKAGE = "dickson_mrd"


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []  # complete once no traced call is running
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, attrs: Optional[AttrFn] = None) -> None:
        """Trace `module.attr` under span `name` in every package module that binds it."""
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(original) if attrs is not None else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[idx] = (name, start, end, parent, attrs(bound.arguments, result))
            return result

        modules = [mod for modname, mod in list(sys.modules.items())
                   if modname == PACKAGE or modname.startswith(PACKAGE + ".")]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def span_table(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: calls, total seconds and self seconds (duration minus
    the time its direct child spans cover)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table: Dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return table
