"""Outside-in span tracing of affkit's layers.

Spans are recorded by replacing functions in affkit's module namespaces
with timing wrappers, so no file of the package changes. Every span keeps
its name, the op it belongs to (an int inside a measured op, a string in
a set-up run), its start and end, and the index of its parent span. Spans stay in memory until `dump`.
"""

import json
import statistics
import sys
import time
from collections import defaultdict

from affkit.errors import AffkitError


def arg(args, kwargs, pos, name):
    """Argument `name` of a call, given by position `pos` or by keyword."""
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and per-op counts while its patches are installed."""

    def __init__(self):
        self.spans = []  # [name, op, start, end, parent index or -1]
        self.counts = defaultdict(lambda: defaultdict(float))  # key -> op -> n
        self.missing = {}  # span name -> why it could not be wrapped
        self.op = None  # measured ops are ints; set-up runs are strings
        self._stack = []
        self._targets = []  # (owner, attribute, span name, hooks)
        self._patches = []  # (owner, attribute, original)

    def add(self, key, value):
        self.counts[key][self.op] += value

    def target(self, owner, attr, name, count=None, fail_key=None):
        """Register `owner.attr` to be wrapped as span `name`.

        `count(args, kwargs, result)` returns counts to add after a call;
        `fail_key` counts calls that raise an AffkitError.
        """
        self._targets.append((owner, attr, name, (count, fail_key)))

    def _wrap(self, name, fn, count, fail_key):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.op, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except AffkitError:
                if fail_key:
                    self.add(fail_key, 1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][2:4] = start, end
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.add(key, value)
            return result

        return traced

    def install(self):
        """Wrap every registered target wherever affkit binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "affkit" or n.startswith("affkit.")]
        for owner, attr, name, (count, fail_key) in self._targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing[name] = f"{attr} no longer exists in affkit"
                continue
            wrapped = self._wrap(name, fn, count, fail_key)
            # `from .model import forward_direction` binds the function in
            # the importing module too, so patch every binding of it.
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def begin_op(self, op):
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["op", op, time.perf_counter(), 0.0, -1])

    def end_op(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()
        self.op = None

    def self_times(self):
        """Seconds of self time and call count per span name, inside ops.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap, as the workloads run one thread.
        """
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals, calls = defaultdict(float), defaultdict(int)
        for (name, op, start, end, _), child in zip(self.spans, covered):
            if isinstance(op, int):
                totals[name] += end - start - child
                calls[name] += 1
        return totals, calls

    def call_seconds(self, name):
        """Median inclusive seconds of `name` per op, else per set-up run.

        Calls within one op or one set-up run are summed first. Returns
        the median and the number of ops or set-up runs it is taken over.
        """
        per_op, per_setup = defaultdict(float), defaultdict(float)
        for n, op, start, end, _ in self.spans:
            if n == name:
                group = per_op if isinstance(op, int) else per_setup
                group[op] += end - start
        sums = list((per_op or per_setup).values())
        return (statistics.median(sums) if sums else 0.0), len(sums)

    def count(self, key, ops=None):
        """Sum of count `key` over measured ops in `ops` (all when None)."""
        return sum(v for op, v in self.counts.get(key, {}).items()
                   if isinstance(op, int) and (ops is None or op in ops))

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
