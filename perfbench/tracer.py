"""Outside-in span tracing for the benchmark.

The tracer replaces public curvact functions at the module attribute their
caller looks them up by (``curvact.attacks.grad_input_batch`` for PGD,
``curvact.activations.value`` for ``act.value`` in the network code, and so
on), records one span per call in flat in-memory arrays, and restores the
originals on ``uninstall``.  Nothing inside ``src/`` is edited.

A span holds its name, start, end, parent span and run id.  Self time is a
span's duration minus the durations of its direct children; calls are
strictly nested because every workload is a single-threaded closed loop.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _widths(args, kwargs):
    return _arg(args, kwargs, 0, "net").widths


def _dense_flops(w, n):
    """Flops of the n-row products through every dense layer of widths w."""
    return 2 * n * sum(w[l] * w[l + 1] for l in range(len(w) - 1))


def _count_elements(counts, args, kwargs):
    counts["activations.elements"] += np.size(_arg(args, kwargs, 1, "x"))


def _count_forward(counts, args, kwargs):
    w = _widths(args, kwargs)
    n = len(_arg(args, kwargs, 1, "X"))
    counts["network.forward_batch.rows"] += n
    counts["network.gemm_flops_computed"] += _dense_flops(w, n)


def _count_deltas(counts, args, kwargs):
    w = _widths(args, kwargs)
    n = _arg(args, kwargs, 1, "trace").f.shape[0]
    counts["network.gemm_flops_computed"] += 2 * n * sum(
        w[l + 2] * w[l + 1] for l in range(len(w) - 2))


def _count_grad_input(counts, args, kwargs):
    w = _widths(args, kwargs)
    counts["network.gemm_flops_computed"] += 2 * len(_arg(args, kwargs, 1, "X")) * w[1] * w[0]


def _count_grad_params(counts, args, kwargs):
    counts["network.gemm_flops_computed"] += _dense_flops(
        _widths(args, kwargs), len(_arg(args, kwargs, 1, "X")))


def _count_pgd(counts, args, kwargs):
    counts["attacks.pgd_batch.rows"] += len(_arg(args, kwargs, 1, "X"))
    counts["attacks.pgd_batch.steps"] += _arg(args, kwargs, 3, "cfg").steps


TRAIN_ADV, TRAIN_STD = 1, 2


def _tag_train_mode(args, kwargs):
    return TRAIN_ADV if _arg(args, kwargs, 2, "cfg").mode == "pgd_adversarial" else TRAIN_STD


def _tag_hidden_layers(args, kwargs):
    return _arg(args, kwargs, 0, "net").depth - 1


def wrap_table(curvact):
    """(module, attribute, span name, count hook, tag hook) for every wrapped
    call site.  The span name's first component is the layer (module) that
    owns the function; the module is where the caller looks it up."""
    act, net, atk = curvact.activations, curvact.network, curvact.attacks
    trn, hes, dat, cli = curvact.training, curvact.hessian, curvact.data, curvact.cli
    rows = []
    for mod in (act, cli):
        for fn in ("value", "d1", "d2"):
            rows.append((mod, fn, f"activations.{fn}", _count_elements, None))
    rows += [
        (net, "forward_batch", "network.forward_batch", _count_forward, None),
        (atk, "forward_batch", "network.forward_batch", _count_forward, None),
        (net, "batch_deltas", "network.batch_deltas", _count_deltas, None),
        (atk, "grad_input_batch", "network.grad_input_batch", _count_grad_input, None),
        (trn, "grad_params_batch", "network.grad_params_batch", _count_grad_params, None),
        (trn, "mean_loss", "network.mean_loss", None, None),
        (trn, "init_network", "network.init_network", None, None),
        (cli, "init_network", "network.init_network", None, None),
        (hes, "forward", "network.forward", None, None),
        (cli, "forward", "network.forward", None, None),
        (hes, "backprop_deltas", "network.backprop_deltas", None, None),
        (hes, "loss", "network.loss", None, None),
        (trn, "pgd_batch", "attacks.pgd_batch", _count_pgd, None),
        (atk, "pgd_batch", "attacks.pgd_batch", _count_pgd, None),
        (trn, "robust_accuracy", "attacks.robust_accuracy", None, None),
        (atk, "robust_accuracy", "attacks.robust_accuracy", None, None),
        (trn, "clean_accuracy", "attacks.clean_accuracy", None, None),
        (atk, "clean_accuracy", "attacks.clean_accuracy", None, None),
        (trn, "run_sweep", "training.run_sweep", None, None),
        (trn, "run_cell", "training.run_cell", None, None),
        (trn, "train_network", "training.train_network", None, _tag_train_mode),
        (hes, "hessian_diag_exact", "hessian.hessian_diag_exact", None, _tag_hidden_layers),
        (cli, "hessian_diag_exact", "hessian.hessian_diag_exact", None, _tag_hidden_layers),
        (cli, "hessian_diag_fd", "hessian.hessian_diag_fd", None, None),
        (trn, "dataset_diag_norm", "hessian.dataset_diag_norm", None, None),
        (hes, "dataset_diag_norm", "hessian.dataset_diag_norm", None, None),
        (trn, "make_dataset", "data.make_dataset", None, None),
        (dat, "make_dataset", "data.make_dataset", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    return rows


class Tracer:
    """Span recorder; ``install`` wraps the call sites, ``uninstall`` restores them."""

    def __init__(self, table):
        self.table = table
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.tag = array("i")
        self.outer = array("b")  # 1 when no span of the same layer is open
        self.failed = array("b")
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, count, tag):
        nid = self._id(name)
        layer = name.split(".")[0]
        counts, stack, opened = self.counts, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(counts, args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.tag.append(tag(args, kwargs) if tag is not None else 0)
            self.outer.append(opened[layer] == 0)
            self.failed.append(0)
            self.end.append(0.0)
            opened[layer] += 1
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                opened[layer] -= 1

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, name, count, tag in self.table:
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, count, tag))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def spans(self) -> dict[str, np.ndarray]:
        """Columns of every recorded span, with durations and self times."""
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = end - start
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "parent": parent,
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
            "dur": dur,
            "self": self_times(dur, parent),
        }

    def save(self, path):
        cols = self.spans()
        np.savez(path, names=np.array(self.names), **cols)


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child
