"""Monte Carlo block reduction, shared by the moment and power-mean routes
and the absolute moments of the bound checks.

The replications of a call form blocks of MCConfig.batch, and block idx
draws from its own stream (seed, idx).  Consecutive blocks form groups, and
FRACMEAN_THREADS workers evaluate the groups in a static round robin: the
calling thread is worker 0, the others are threads started and joined
within the call.  A worker evaluates a group with one numpy call per step
over all its rows, in a workspace (principal.Workspace) that it keeps
across blocks and calls, then reduces each block to its moments; the
moments are merged in block order, so every thread count gives the same
bits.
"""

import math
import os
import threading

import numpy as np

from . import distributions
from .distributions import stream_generator
from .principal import Workspace


def _thread_count():
    raw = os.environ.get("FRACMEAN_THREADS", "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"FRACMEAN_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


# replications per call of a block callback, two blocks at the default
# batch: each numpy step of a group runs long enough that two workers
# seldom wait for the interpreter lock, while the workspace of a worker
# (about 41 bytes per value at one order) stays near the temporaries of the
# block-at-a-time loop it replaces
_GROUP_ROWS = 8_192

_idle_workspaces = []  # kept across calls; each running worker holds one
_idle_lock = threading.Lock()
_worker = threading.local()


def _workspace():
    """The workspace of the Monte Carlo worker running on this thread."""
    return _worker.ws


def _block_moments(rows, batch, ws):
    """Moments (count, mean, M2_re, M2_im) of the blocks of batch consecutive
    values along each row of rows, the last block possibly shorter: one list
    per block, with one tuple per row.  M2 sums the squared deviations of
    each component from the block mean.  Each sum is numpy's pairwise sum
    over one block, as for the block alone."""
    full, tail = divmod(rows.shape[1], batch)
    spans = [span for span in ((0, full, batch), (full, 1, tail)) if span[1] and span[2]]
    blocks = [[] for _ in range(full + (tail > 0))]
    for first, count, size in spans:
        start = first * batch
        dev = ws.take("scratch.0", (count, size))

        def m2(part, centers):
            return np.sum(np.square(np.subtract(part, centers[:, None], out=dev), out=dev), axis=1)

        for row in rows:
            vals = row[start : start + count * size].reshape(count, size)
            means = np.mean(vals, axis=1)
            m2_re = m2(vals.real, means.real)
            m2_im = m2(vals.imag, means.imag) if np.iscomplexobj(vals) else np.zeros(count)
            for idx in range(count):
                blocks[first + idx].append((size, complex(means[idx]), float(m2_re[idx]), float(m2_im[idx])))
    return blocks


def _merge_moments(a, b):
    """Pairwise update of Chan, Golub & LeVeque: the moments of the union of
    two blocks, free of the cancellation in sum(x**2) - N * mean**2."""
    n_a, mean_a, re_a, im_a = a
    n_b, mean_b, re_b, im_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    w = n_a * n_b / n
    return n, mean_a + delta * (n_b / n), re_a + re_b + delta.real ** 2 * w, im_a + im_b + delta.imag ** 2 * w


class _OrderedFold:
    """Block moments merged in block index order as groups finish, on
    whichever worker completes the next group.  A worker waits before it
    starts a group more than `window` groups past the next one to merge, so
    the moments waiting to be merged stay bounded."""

    def __init__(self, window):
        self._cond = threading.Condition()
        self._pending = {}
        self._next = 0
        self._window = window
        self.merged = None
        self.failure = None  # (group, exception) of the lowest failing group

    def _stopped(self, group):
        return self.failure is not None and self.failure[0] < group

    def wait_turn(self, group):
        """Block until group may start; False when a lower group failed."""
        with self._cond:
            self._cond.wait_for(lambda: self._stopped(group) or group < self._next + self._window)
            return not self._stopped(group)

    def put(self, group, parts):
        with self._cond:
            self._pending[group] = parts
            while self._next in self._pending:
                for part in self._pending.pop(self._next):
                    if self.merged is None:
                        self.merged = part
                    else:
                        self.merged = [_merge_moments(a, b) for a, b in zip(self.merged, part)]
                self._next += 1
            self._cond.notify_all()

    def fail(self, group, exc):
        with self._cond:
            if self.failure is None or group < self.failure[0]:
                self.failure = (group, exc)
            self._cond.notify_all()


def _mc_mean(per_block_values, total, mc):
    """Blockwise accumulation of complex sample means.

    per_block_values(first, count) returns the values of blocks first ..
    first + count - 1 side by side: one array, or one row per estimate, each
    reduced separately.  It runs on a worker and may return arrays of that
    worker's _workspace(), which stay intact until its next call.  Groups
    hold _GROUP_ROWS replications, and worker w takes groups w, w + threads,
    and so on.  The exception of the lowest failing group propagates.
    Returns ([(mean, stderr) per row], blocks).
    """
    batch = mc.batch
    blocks = -(-total // batch)
    span = max(1, _GROUP_ROWS // batch)
    groups = -(-blocks // span)
    threads = min(_thread_count(), groups)
    fold = _OrderedFold(2 * threads)

    def work(worker):
        with _idle_lock:
            ws = _idle_workspaces.pop() if _idle_workspaces else Workspace()
        _worker.ws = ws
        try:
            for group in range(worker, groups, threads):
                try:
                    if not fold.wait_turn(group):
                        return
                    first = group * span
                    count = min(span, blocks - first)
                    parts = _block_moments(np.atleast_2d(per_block_values(first, count)), batch, ws)
                except BaseException as exc:  # re-raised by the calling thread
                    fold.fail(group, exc)
                    return
                fold.put(group, parts)
        finally:
            _worker.ws = None
            with _idle_lock:
                _idle_workspaces.append(ws)

    helpers = []
    try:
        for worker in range(1, threads):
            helper = threading.Thread(target=work, args=(worker,), name=f"fracmean-mc-{worker}")
            helper.start()
            helpers.append(helper)
        work(0)
    except BaseException as exc:  # a helper did not start, or an interrupt: stop the others
        fold.fail(-1, exc)
        raise
    finally:
        for helper in helpers:
            helper.join()
    if fold.failure is not None:
        raise fold.failure[1]
    estimates = []
    for _, mean, m2_re, m2_im in fold.merged:
        stderr = math.sqrt((m2_re + m2_im) / (total - 1) / total) if total > 1 else math.inf
        estimates.append((mean, stderr))
    return estimates, blocks


def _block_draws(model, mc, first, count, per_row=1, rows=0):
    """Draws of blocks first .. first + count - 1, per_row of them per
    replication, side by side in the worker's workspace; block idx draws
    from the stream (mc.seed, idx) exactly what sample() gives it alone.
    Returns (draws, room, ws): the same slot holds room for rows complex
    values per replication after the draws, so that a group's output adds
    no slot of its own."""
    ws = _workspace()
    streams = [
        (stream_generator(mc.seed, idx), min(mc.batch, mc.samples - idx * mc.batch) * per_row)
        for idx in range(first, first + count)
    ]
    size = sum(part for _, part in streams)
    slot = ws.take("draws", size * (per_row + rows) // per_row, complex)
    draws = slot[:size]
    # through the module, so that a wrapper of distributions._sample_with sees these draws
    distributions._sample_with(streams, model, size, out=draws, ws=ws)
    return draws, slot[size:].reshape(rows, size // per_row), ws
