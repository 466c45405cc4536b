"""In-memory span tracer installed from outside the kerrdown package.

`Tracer.install()` replaces the public functions of each kerrdown layer module,
`SweepResult.to_csv` and `np.linalg.eigh` with wrappers, through the module
attributes the program looks them up by (from-imports in other layer modules
are rebound too).  Each wrapper opens a span (name, start, end, parent, job,
op), and on exit adds to exact running totals:

* per span name: calls, busy time (outermost same-name spans only) and self
  time (duration minus the time its child spans cover);
* per layer: entries from another layer, their busy time, self time, and the
  exceptions that left the layer by type.

The totals cover every span.  Only the first SPAN_CAP spans are kept for
the span dump, which bounds memory and disk on the closed-form workload where
one 1000-point sweep opens tens of thousands of spans.  Nothing is traced
inside the package itself; `uninstall()` restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("quad_core", "moments_engine", "squeezing_analytic", "fock_oracle", "verify", "cli")
EIGH = "fock_oracle.eigh"  # np.linalg.eigh as called by the oracle: a layer of its own

SPAN_CAP = 20_000


def _kind_arg(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return kind.value


# span names that differ from "<layer>.<function>": per-kind dispatchers are
# split by kind so each kind's cost shows on its own
_NAME_BY_ARGS = {
    ("moments_engine", "moments_for"): lambda a, kw: "moments_engine." + _kind_arg(a, kw),
    ("squeezing_analytic", "factors"): lambda a, kw: "squeezing_analytic." + _kind_arg(a, kw),
}
_RENAMED = {("fock_oracle", "moment_set_numeric"): "fock_oracle.moment_set"}


class Tracer:
    def __init__(self, job: int):
        self.job = job
        self.op = -1
        self.t0 = time.perf_counter()
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._depth: Counter = Counter()
        # exact totals over every span
        self.calls: Counter = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.layer_errors: Counter = Counter()
        self.root_s = 0.0
        # oracle state accounting: every propagation, and the distinct states
        self.evolutions = 0
        self._states: set = set()
        # recorded spans (first SPAN_CAP only)
        self._names: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_op = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self.spans_dropped = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"kerrdown.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[fn] = self._wrap(fn, layer, attr)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        sweep_result = mods["cli"].SweepResult
        self._patch(sweep_result, "to_csv", self._wrap(sweep_result.to_csv, "cli", "to_csv"))
        self._patch(np.linalg, "eigh", self._wrap(np.linalg.eigh, EIGH, None))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, layer: str, attr: str | None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        name = layer if attr is None else _RENAMED.get((layer, attr), f"{layer}.{attr}")
        name_of = _NAME_BY_ARGS.get((layer, attr))
        on_enter = {
            "fock_oracle.moment_set": self._count_moment_set,
            "fock_oracle.evolve": self._count_evolve,
        }.get(name)

        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of is not None else name
            if on_enter is not None:
                on_enter(args, kwargs)
            parent = stack[-1] if stack else None
            frame = [span, layer, 0.0, tracer._open(span, parent)]
            tracer._depth[span] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if parent is None or parent[1] != layer:
                    tracer.layer_errors[layer, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer._close(frame, parent, start, end)

        functools.update_wrapper(traced, fn)
        return traced

    def _open(self, span: str, parent) -> int:
        if len(self._span_start) >= SPAN_CAP:
            self.spans_dropped += 1
            return -1
        idx = self._names.setdefault(span, len(self._names))
        self._span_name.append(idx)
        self._span_parent.append(parent[3] if parent is not None else -1)
        self._span_op.append(self.op)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        return len(self._span_start) - 1

    def _close(self, frame, parent, start: float, end: float) -> None:
        span, layer, child_s, idx = frame
        dur = end - start
        own = dur - child_s
        self.calls[span] += 1
        self.self_time[span] += own
        self.layer_self[layer] += own
        self._depth[span] -= 1
        if self._depth[span] == 0:
            self.busy[span] += dur
        if parent is None:
            self.root_s += dur
        else:
            parent[2] += dur
        if parent is None or parent[1] != layer:
            self.layer_calls[layer] += 1
            self.layer_busy[layer] += dur
        if idx >= 0:
            self._span_start[idx] = start - self.t0
            self._span_end[idx] = end - self.t0

    def _count_moment_set(self, args, kwargs) -> None:
        p, t = args[0], args[1]
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        n_max = cfg.n_max if cfg is not None else None  # None: the default cutoff
        self.evolutions += 1
        self._states.add(("params", p.chi_bar, p.k, p.alpha1, p.alpha2, float(t), n_max))

    def _count_evolve(self, args, kwargs) -> None:
        state, h, t = args[0], args[1], args[2]
        self.evolutions += 1
        self._states.add(("raw", id(h), hash(state.amp.tobytes()), float(t)))

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "names": {
                n: {"calls": self.calls[n], "busy_s": self.busy[n], "self_s": self.self_time[n]}
                for n in self.calls
            },
            "layers": {
                layer: {
                    "calls": self.layer_calls[layer],
                    "busy_s": self.layer_busy[layer],
                    "self_s": self.layer_self[layer],
                }
                for layer in self.layer_self
            },
            "layer_errors": {f"{layer}:{exc}": n for (layer, exc), n in self.layer_errors.items()},
            "root_s": self.root_s,
            "evolutions": self.evolutions,
            "distinct_states": len(self._states),
            "spans_recorded": len(self._span_start),
            "spans_dropped": self.spans_dropped,
        }

    def write_spans(self, path) -> None:
        names = {idx: n for n, idx in self._names.items()}
        with open(path, "w") as fh:
            fh.write("job\top\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self._span_start)):
                fh.write(
                    f"{self.job}\t{self._span_op[i]}\t{i}\t{self._span_parent[i]}\t"
                    f"{names[self._span_name[i]]}\t{self._span_start[i]!r}\t{self._span_end[i]!r}\n"
                )
