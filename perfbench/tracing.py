"""Span tracing of growbp from outside the package, and the per-layer metrics.

``Tracer.install`` replaces public functions of each growbp module with
wrappers that record a span (name, start, end, parent, value) in memory.
Nothing in the package knows about it, and ``uninstall`` restores the
originals.  The per-pattern functions (``backprop_step``, ``forward``) are
not wrapped: a span per step would cost a noticeable share of the step
itself, and the step layer is measured through ``train_epoch`` instead.

Per-layer metrics (all times are sums over one sweep unless named per
unit):

- ``trainer.step_us``: ``train_epoch`` time per online step.
- ``trainer.epoch_ms``/``trainer.epochs``/``trainer.steps``: time in,
  calls of, and patterns passed to ``train_epoch``.
- ``trainer.eval_ms``/``trainer.eval_calls``: ``average_error``.
- ``trainer.eval_share``: (``average_error`` + ``efficiency``) time over
  the seeds' ``constructive_train`` time.
- ``trainer.epoch_share``: ``train_epoch`` time over the same base.
- ``metrics.efficiency_ms``/``metrics.efficiency_calls``: ``efficiency``.
- ``trainer.phase_self_ms``/``trainer.phases``: ``train_phase`` time not
  covered by its child spans, and its calls.
- ``trainer.useful_epoch_share``: epochs that led to the returned
  network (up to the best validation epoch of every phase up to the
  selected one) over epochs run.
- ``network.grow_calls``: ``add_hidden_unit`` calls.
- ``trainer.seed_s_p50``/``trainer.seed_s_max``: per-seed
  ``constructive_train`` seconds.
- ``dataset.load_s``/``dataset.rows``: ``load_dataset`` time and rows.
- ``cli.render_ms``: ``render_table`` time.
- ``cli.task_bytes``: bytes pickled by the parent for its pool workers.
- ``cli.sweep_overhead_s``: ``run_experiment`` time minus load, render
  and the compute makespan the per-seed times imply for the pool size.
- ``cli.parallel_eff``: summed per-seed time over (workers x the sweep's
  compute time, which excludes load and render).
"""

import heapq
import json
import statistics
import sys
import time
from multiprocessing.reduction import ForkingPickler


def _steps(args, result):
    return len(args[1])


def _value(args, result):
    return result


def _rows(args, result):
    return result.header.total


def _seed_run(args, result):
    return [args[1].seed, result[1].selected_index()]


# (module, function, value recorded from its arguments and result)
TARGETS = (
    ("dataset", "load_dataset", _rows),
    ("dataset", "parse_dataset", None),
    ("network", "forward_outputs", None),
    ("network", "add_hidden_unit", None),
    ("metrics", "efficiency", None),
    ("trainer", "train_epoch", _steps),
    ("trainer", "average_error", _value),
    ("trainer", "train_phase", None),
    ("trainer", "constructive_train", _seed_run),
    ("cli", "render_table", None),
    ("cli", "run_experiment", None),
)


class Tracer:
    """Records spans around growbp's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.pickled_bytes = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, value):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[4] = value(args, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "growbp" or key.startswith("growbp.")]
        for mod_name, fn_name, value in TARGETS:
            home = sys.modules.get(f"growbp.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            traced = self._wrap(f"{mod_name}.{fn_name}", fn, value)
            # Rebind every module-level reference, since modules import
            # each other's functions by name.
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, fn))
        original = ForkingPickler.__dict__["dumps"]

        def dumps(cls, obj, protocol=None):
            buf = original.__func__(cls, obj, protocol)
            self.pickled_bytes += len(buf)
            return buf

        ForkingPickler.dumps = classmethod(dumps)
        self._restore.append((ForkingPickler, "dumps", original))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path, label):
        with open(path, "a", encoding="ascii") as fh:
            for i, (name, start, end, parent, value) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": label, "id": i, "name": name, "start": start,
                    "end": end, "parent": parent, "value": value,
                }) + "\n")


def _children(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def _by_name(spans, name):
    return [s for s in spans if s[0] == name]


def _total(spans, name):
    return sum(s[2] - s[1] for s in _by_name(spans, name))


def _useful_epochs(spans, kids, phase):
    """Epochs up to and including the phase's best validation epoch."""
    errors = []
    after_epoch = False
    for k in kids[phase]:
        name = spans[k][0]
        if name == "trainer.train_epoch":
            after_epoch = True
        elif name == "trainer.average_error" and after_epoch:
            errors.append(spans[k][4])
            after_epoch = False
    if not errors:
        return 0
    return errors.index(min(errors)) + 1


def makespan(seconds, workers):
    """Finish time of tasks taken in order by the first free worker."""
    free = [0.0] * max(1, workers)
    for s in seconds:
        heapq.heappush(free, heapq.heappop(free) + s)
    return max(free)


def compute_metrics(spans):
    """Metrics of the layers inside one seed's run, from a serial trace."""
    kids = _children(spans)
    seeds = _by_name(spans, "trainer.constructive_train")
    seed_s = [s[2] - s[1] for s in seeds]
    compute = sum(seed_s)
    epoch_s = _total(spans, "trainer.train_epoch")
    eval_s = _total(spans, "trainer.average_error")
    eff_s = _total(spans, "metrics.efficiency")
    steps = sum(s[4] or 0 for s in _by_name(spans, "trainer.train_epoch"))
    epochs = len(_by_name(spans, "trainer.train_epoch"))

    phase_self = 0.0
    useful = 0
    for i, span in enumerate(spans):
        if span[0] == "trainer.train_phase":
            phase_self += (span[2] - span[1]) - sum(
                spans[k][2] - spans[k][1] for k in kids[i])
        elif span[0] == "trainer.constructive_train" and span[4]:
            selected = span[4][1]
            phases = [k for k in kids[i]
                      if spans[k][0] == "trainer.train_phase"]
            useful += sum(_useful_epochs(spans, kids, p)
                          for p in phases[:selected + 1])
    return {
        "trainer.step_us": 1e6 * epoch_s / steps if steps else 0.0,
        "trainer.epoch_ms": 1e3 * epoch_s,
        "trainer.epochs": epochs,
        "trainer.steps": steps,
        "trainer.eval_ms": 1e3 * eval_s,
        "trainer.eval_calls": len(_by_name(spans, "trainer.average_error")),
        "trainer.eval_share": (eval_s + eff_s) / compute if compute else 0.0,
        "trainer.epoch_share": epoch_s / compute if compute else 0.0,
        "metrics.efficiency_ms": 1e3 * eff_s,
        "metrics.efficiency_calls": len(_by_name(spans, "metrics.efficiency")),
        "trainer.phase_self_ms": 1e3 * phase_self,
        "trainer.phases": len(_by_name(spans, "trainer.train_phase")),
        "trainer.useful_epoch_share": useful / epochs if epochs else 0.0,
        "network.grow_calls": len(_by_name(spans, "network.add_hidden_unit")),
        "trainer.seed_s_p50": statistics.median(seed_s) if seed_s else 0.0,
        "trainer.seed_s_max": max(seed_s, default=0.0),
    }, seed_s


def sweep_metrics(spans, seed_s, workers, pickled_bytes):
    """Metrics of the loading and sweep layers, from the traced sweep."""
    sweep = _total(spans, "cli.run_experiment")
    load = _total(spans, "dataset.load_dataset")
    render = _total(spans, "cli.render_table")
    compute = sweep - load - render
    loads = _by_name(spans, "dataset.load_dataset")
    return {
        "dataset.load_s": load,
        "dataset.rows": loads[0][4] if loads else 0,
        "cli.render_ms": 1e3 * render,
        "cli.task_bytes": pickled_bytes,
        "cli.sweep_overhead_s": compute - makespan(seed_s, workers),
        "cli.parallel_eff": (sum(seed_s) / (workers * compute)
                             if compute > 0 else 0.0),
    }, sweep
