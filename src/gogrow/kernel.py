"""The forward-Euler update of the rows of a batch (see solver).

A _Kernel owns the rows of the configs of one solver.run_batch: it copies
them into one flat buffer, cur, and advance steps cur into a second
buffer and back, leaving the last step taken in cur.  Written with the
reaction field R = v - A(v), one step is two three-point stencils, one
over v and one over R; R vanishes at 0 and 1, so both stationary states
are kept exactly.  The density model's R = [P < 1] rho switches at one
node, which each row carries from step to step and confirms from one tail
sum, falling back to the full suffix sum only when roundoff could decide
it; R is bit for bit the same.

advance takes the steps between two events of solver.run_batch: a plain
loop over prebuilt views of the two buffers, so a step pays for its numpy
calls and little else.  It steps only a band of each row, past the nodes
behind the front that the last step left unchanged and so the next one
provably leaves as they are (see _Kernel): a settled plateau, or the left
part of a wave of P that its moving frame leaves unchanged.  A call goes
on with the bands and proofs of the last one while the rows are as that
call left them, so an event that only reads the rows, such as an emit,
costs the kernel one comparison of the rows.
Each step is checked by one global guard, out[argmin] >= 0 and out[argmax]
<= a ceiling (1 + 1e-12 for the bounded models); argmin and argmax return
the first NaN, and an infinity fails one of the two tests, so every value
the per-row guards would refuse trips it.  The loop returns at the step
that tripped it, and the per-row guards then clip or refuse its rows.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .solver import SimConfig


class Model(enum.Enum):
    LOCAL_U = "local_u"
    NONLOCAL_P = "nonlocal_p"
    NONLOCAL_RHO = "nonlocal_rho"
    FKPP = "fkpp"  # logistic reference: v_t = v_xx + v(1 - v), no flux


# the method of each model's reaction R
_REACTIONS = {Model.LOCAL_U: "_local", Model.NONLOCAL_P: "_ramp", Model.NONLOCAL_RHO: "_density",
              Model.FKPP: "_logistic"}

# the nodes a band widens by when its first node changes, and starts short
# of the nodes the last step left unchanged
_MARGIN = 16
# the steps between two proofs, while the drift is constant
_EVERY = 64


class _Kernel:
    """The rows of B configs that share batch_key, and their Euler update.

    The rows lie end to end in cur, one flat array of B*n nodes, and
    advance steps them in turn from cur into nxt and back.  With
    lam = dt/dx^2, d = dt c_frame/2dx and m = dt chi/2dx, the update of
    every interior node is two three-point stencils,

        out = v + corr(v, [lam - d + m, -2 lam, lam + d - m])
                + corr(R, [-m, dt, m]),

    over v and over its reaction field R = v - A(v) (v(1 - v) with m = 0
    for the FKPP reference).  R vanishes exactly at 0 and 1, and the
    v-weights sum to well under half an ulp of 1, so both stationary
    states are kept exactly.  Each row runs its own pair of weights, so a
    row of a batch is rounded exactly as its own run.  The weights are
    rebuilt only when dt or the frame drift changes, which the
    log-shifted frame does on every step.

    advance steps only a band of each row, from its first stepped node
    on.  The nodes left of it are held: a step provably leaves them as
    they are, bit for bit.  The one proof is the last step: under
    unchanged weights, a node that it left unchanged, with both its
    neighbours, has that step's inputs again and comes out the same.
    The first step after a write to the rows, a new kernel or new weights
    is a full one.  While the drift is constant, _find takes the proof of
    that step and of every _EVERY-th step after it.  With f the first
    node the step changed (for the density model no further right than
    its switch node, so that R was 0 at both steps), the band starts
    _MARGIN short of f - 1.  A row without a band takes any; a later
    proof moves a band by _MARGIN nodes or more, so that views are built
    rarely, and so a band follows a plateau that advances behind its
    front.  The log-shifted frame takes no proof and holds nothing: its
    drift, and so its weights, change on every step, so no step proves
    the next.

    A band is kept by watching its first node: while a step leaves it
    unchanged, the held nodes see the inputs they saw; when it changes,
    the band widens by _MARGIN (_widen).  The density model's band also
    widens to left of its switch node when that moves into it.  A call
    goes on where the last one stopped, with its bands, the steps since
    the full step and the next proof due, so advance(a); advance(b) steps
    and holds as advance(a + b) does.  A write to the rows between calls
    voids that: the kernel keeps the bytes of cur as it left them and
    compares them at the next call, so after a recentring shift, a test's
    write or a guard's clip (a tripped guard keeps nothing) the next call
    starts with a full step, as it does under new weights.  A proof holds
    only nodes that its step left equal in both buffers, so neither
    buffer is written there; the two edge nodes are written in the first
    two steps after a full one, and then sit in both buffers too.  The
    guard still reads every node, and held counts the node-steps held.
    The reaction runs from the first row's band to the end of the array.
    nonlocal_p's node 0 keeps the linear rule 2 out[1] - out[2], which
    gives node 0 its value again while nodes 1 and 2 are held; its band
    holds where steps leave the left part of P unchanged, in a frame
    moving with the wave, and nowhere in the lab frame, where P grows on
    the left.

    The density model's R = [P < 1] rho switches at one node of each row,
    the first where dx times the sequential suffix sum drops below 1.
    Rows the kernel stepped are nonnegative, so those sums are monotone
    and that node decides the whole mask.  Each row keeps its switch node
    from step to step and confirms it, or a neighbour, from one tail sum
    (_locate), which refuses a row that a recentring shift moved by more
    than a node.  When that fails, or no node is known (switch[j] is None:
    the first step of a new kernel, or a row whose mask was not one step),
    the row takes the full suffix sum, and fallbacks counts those rows.
    Either way R is the same 0/1 mask times rho, bit for bit.
    """

    def __init__(self, cfgs: Sequence[SimConfig], rows: Sequence[np.ndarray]):
        cfg = cfgs[0]
        self.model = cfg.model
        self.n = n = cfg.grid.n
        self.rows = len(cfgs)
        self.dx = cfg.grid.dx
        self.chi = [0.0 if self.model is Model.FKPP else c.chi_params.chi for c in cfgs]
        eps = cfg.epsilon
        self.plateau_rate = None if eps is None else (1.0 - eps) / eps
        self.frame = cfg.frame
        self.bounded = self.model in (Model.LOCAL_U, Model.FKPP)
        # the largest value a stepped row may take without its guard
        self.ceiling = 1.0 + 1e-12 if self.bounded else sys.float_info.max
        # the model's reaction, unbound: a bound method kept on the kernel
        # would make a reference cycle that only the garbage collector frees
        self._reaction = getattr(_Kernel, _REACTIONS[self.model])
        size = self.rows * n
        self.cur = np.concatenate(rows)
        self.nxt = np.empty_like(self.cur)
        self._react = np.empty(size)
        # the switch node of each row (None: unknown), the mask [P < 1]
        # that matches it, and the roundoff margin that proves it
        self.switch: list = [None] * self.rows
        self.fallbacks = 0
        self._mask = None
        if self.model is Model.NONLOCAL_RHO:
            self._mask = np.empty(size)
            eta = 4.0 * (n + 2) * 2.0**-53
            self._below, self._above = 1.0 - eta, 1.0 + eta
        self._key = None
        self._weights: list = []
        # the band of each row, its first stepped node (1: all of them), and
        # its legs, cur into nxt and nxt into cur (None: built again)
        self._start = [1] * self.rows
        self._legs: list | None = None
        self.held = 0
        # the bytes of cur as the last call left them (None: that call's
        # guard tripped, or none was made), the steps taken since the full
        # step, and the step of the next proof, counted as those
        self._left: bytes | None = None
        self._done = 0
        self._proof_at = 1
        # nodes 0, 1, 2 and n-1 of every row; plain indices for one row,
        # which cost less than strided views
        self._edges = [i if self.rows == 1 else slice(i, None, n) for i in (0, 1, 2, n - 1)]

    def _leg(self, v: np.ndarray, out: np.ndarray) -> tuple:
        """v, out, the reaction's views of v, R and the mask, and the
        stencils' views of each row from its first stepped node on."""
        n, r = self.n, self._react
        rows = []
        for lo, s in zip(range(0, r.size, n), self._start):
            a, hi = lo + s, lo + n
            rows.append((v[a - 1 : hi], v[a : hi - 1], out[a : hi - 1], r[a - 1 : hi], r[a : hi - 1]))
        a = self._start[0] - 1
        if a == 0:
            return v, out, v, r, self._mask, rows
        mask = None if self._mask is None else self._mask[a:]
        return v, out, v[a:], r[a:], mask, rows

    def _reweigh(self, dt: float, drift: float) -> None:
        """The (v-weights, R-weights) of every row for this dt and drift;
        no band is proved under them, so every row steps in full."""
        lam = dt / (self.dx * self.dx)
        d = dt * drift / (2.0 * self.dx)
        self._weights = []
        for chi in self.chi:
            m = dt * chi / (2.0 * self.dx)
            wv = np.array([lam - d + m, -2.0 * lam, lam + d - m])
            # with m = 0 (FKPP, chi = 0) the R-stencil is one multiply
            self._weights.append((wv, np.array([-m, dt, m]) if m else None))
        self._key = (dt, drift)
        if max(self._start) > 1:
            self._start = [1] * self.rows
            self._legs = None

    def _find(self) -> None:
        """Set the band of each row from the last step, which cur and nxt
        hold under the current weights: _MARGIN short of one node left of
        the first node it changed, or of the density model's switch node,
        if that is further left.  A row without a band takes any; a band
        moves only by _MARGIN or more.  Node n - 1 is never held."""
        n = self.n
        cur, nxt = self.cur.view(np.int64), self.nxt.view(np.int64)  # bits: -0.0 is not 0.0
        for j, s in enumerate(self._start):
            lo = j * n
            changed = cur[lo : lo + n - 1] != nxt[lo : lo + n - 1]
            first = int(np.argmax(changed))
            if not changed[first]:
                first = n - 1
            if self._mask is not None:
                at = self.switch[j]
                first = 0 if at is None else min(first, at)
            start = first - 1 - _MARGIN
            if start >= s + (1 if s == 1 else _MARGIN):
                self._start[j] = start
                self._legs = None

    def _widen(self, j: int, start: int) -> None:
        """Step row j from node start on, if that widens its band."""
        start = max(start, 1)
        if start < self._start[j]:
            self._start[j] = start
            self._legs = None

    def _local(self, v: np.ndarray, r: np.ndarray, _mask) -> None:
        # v below the switch, (1 - eps)/eps (1 - v) on the plateau side
        np.subtract(1.0, v, out=r)
        r *= self.plateau_rate
        np.minimum(r, v, out=r)

    def _ramp(self, v: np.ndarray, r: np.ndarray, _mask) -> None:
        np.minimum(v, 1.0, out=r)

    def _density(self, v: np.ndarray, r: np.ndarray, mask: np.ndarray) -> None:
        # [P < 1] rho, the mask kept by _switches
        np.multiply(mask, v, out=r)

    def _logistic(self, v: np.ndarray, r: np.ndarray, _mask) -> None:
        np.subtract(1.0, v, out=r)
        r *= v

    def _switches(self, v: np.ndarray) -> None:
        """The mask [P < 1] of every row of v, with P = dx * the suffix sums
        of the row, and the band of each row kept left of its switch."""
        n, mask = self.n, self._mask
        for j, k in enumerate(self.switch):
            lo = j * n
            at = None if k is None else self._locate(v[lo : lo + n], k)
            if at is None:
                at = self._suffix_switch(v[lo : lo + n], mask[lo : lo + n])
            elif at != k:
                mask[lo + min(at, k) : lo + max(at, k)] = float(at < k)
            self.switch[j] = at
        for j, s in enumerate(self._start):
            if s > 1:
                at = self.switch[j]
                if at is None or at <= s:
                    self._widen(j, 1 if at is None else at - 1)

    def _suffix_switch(self, row: np.ndarray, mask: np.ndarray) -> int | None:
        """Write [P < 1] of one row from its sequential suffix sums into
        mask; return the switch node, or None when the mask is not one."""
        self.fallbacks += 1
        np.cumsum(row[::-1], out=mask[::-1])
        mask *= self.dx
        np.less(mask, 1.0, out=mask)
        k = self.n - int(np.count_nonzero(mask))
        return k if mask[k:].all() else None

    def _locate(self, row: np.ndarray, k: int) -> int | None:
        """The switch node of a nonnegative row, k or a neighbour of it,
        or None when tail sums cannot prove it.

        Node i is the switch when dx times a tail sum from i lies below
        1 - eta and dx times one from i - 1 at or above 1 + eta: eta
        covers the sequential and any other summation of up to n
        nonnegative terms and the products with dx, so the sequential
        suffix sums switch there too.
        """
        dx, below = self.dx, self._below
        tail = float(np.add.reduce(row[k:]))
        if not dx * tail < below and k < self.n:
            k += 1  # the crossing moved right
            tail = float(np.add.reduce(row[k:]))
        if not dx * tail < below:
            return None
        for i in (k, k - 1):
            if i == 0:
                return 0
            wider = tail + float(row[i - 1])
            if dx * wider >= self._above:
                return i
            if not dx * wider < below:
                return None
            tail = wider  # the crossing moved left
        return None

    def advance(self, times, dt: float) -> tuple[int, list | None]:
        """Take one step of length dt from each time in times, in turn from
        cur into nxt and back, stepping only each row's band, and leave
        the last step taken in cur.

        Returns the number of steps taken and None, or, when a step's
        guard tripped, the steps up to and including that one and one
        entry per row: the number of undershoot nodes clipped to 0, or the
        message of the guard that failed.  cur then holds that step's
        rows, clipped.
        """
        react, drift_at, ceiling = self._reaction, self.frame.drift, self.ceiling
        first, second, third, last = self._edges
        left_linear = self.model is Model.NONLOCAL_P
        switches = None if self._mask is None else self._switches
        times = iter(times)
        t = next(times, None)
        if t is None:
            return 0, None
        times = itertools.chain((t,), times)
        drift = drift_at(t)
        if self._key != (dt, drift) or self._left is None or self.cur.tobytes() != self._left:
            # new weights, or the rows were written or no call left them: a
            # full step, from which the steps count again
            self._reweigh(dt, drift)
            self._done, self._proof_at = 0, 1
        # else this call goes on with the last call's bands and proofs, as
        # one call would
        done = self._done
        # only the log-shifted frame's drift changes from step to step, so
        # only its weights are checked again, and it proves nothing
        shifting = self.frame.r != 0.0
        legs, watch, holds = self._banded()
        # the steps of this call that write the edges: the first two after
        # the full step
        taken, since, guarded, proof_at = 0, 0, None, self._proof_at - done
        edges_until = 2 - done
        for t in times:
            if shifting:
                drift = drift_at(t)
                if self._key != (dt, drift):
                    self._reweigh(dt, drift)
            elif taken == proof_at:
                # cur and nxt hold the last step, under these weights; the
                # proof is taken again so that a band follows a plateau
                # that advances
                self._find()
                proof_at += _EVERY
            if switches is not None:
                switches(legs[taken % 2][0])
            if self._legs is None:
                self.held += holds * (taken - since)
                legs, watch, holds = self._banded()
                since = taken
            v, out, v_span, r_span, mask, rows = legs[taken % 2]
            taken += 1
            react(self, v_span, r_span, mask)
            for (v_row, v_inner, rhs, r_row, r_inner), (wv, wr) in zip(rows, self._weights):
                np.add(v_inner, np.correlate(v_row, wv), out=rhs)
                if wr is None:
                    r_inner *= dt
                    rhs += r_inner
                else:
                    rhs += np.correlate(r_row, wr)
            if taken <= edges_until:
                out[last] = 0.0
                if not left_linear:
                    out[first] = v[first]  # plateau held fixed for one step
            if left_linear:
                out[first] = 2.0 * out[second] - out[third]  # linear-growth left asymptote
            # argmin and argmax find the first NaN, and an infinity fails
            # one of the two tests
            if not (out[out.argmin()] >= 0.0 and out[out.argmax()] <= ceiling):
                # a guard tripped somewhere: each row in the order of a single run
                guarded = [self._guard(row) for row in out.reshape(self.rows, self.n)]
                break
            for j, s, at in watch:
                # values, not bits: no node's step depends on the sign of a
                # zero input, nor gives -0.0
                if out[at] != v[at]:
                    # the band's first node changed: widen by a margin, so
                    # that a band that recedes steadily rebuilds views rarely
                    self._widen(j, s - _MARGIN)
        self.held += holds * (taken - since)
        if taken % 2:
            self.cur, self.nxt = self.nxt, self.cur
            if self._legs is not None:
                self._legs.reverse()
        # a guard's clip wrote rows that no step gave
        self._left = self.cur.tobytes() if guarded is None else None
        self._done, self._proof_at = done + taken, done + proof_at
        return taken, guarded

    def _banded(self) -> tuple[list, list, int]:
        """The legs of the current bands, cur into nxt and nxt into cur,
        the (row, first stepped node, its index in cur) of each band, and
        the nodes they hold per step."""
        if self._legs is None:
            self._legs = [self._leg(self.cur, self.nxt), self._leg(self.nxt, self.cur)]
        watch = [(j, s, j * self.n + s) for j, s in enumerate(self._start) if s > 1]
        return self._legs, watch, sum(self._start) - self.rows

    def _guard(self, row: np.ndarray) -> int | str:
        """The guards of one row: clips undershoots within the roundoff
        budget in place and returns their count, or the failure message."""
        mn = float(np.minimum.reduce(row))
        mx = float(np.maximum.reduce(row))
        if not (math.isfinite(mn) and math.isfinite(mx)):
            return "non-finite field value produced"
        clips = 0
        if mn < 0.0:
            if mn < -1e-12:
                return f"undershoot {mn:.3e} exceeds the roundoff budget"
            clips = int((row < 0.0).sum())
            np.maximum(row, 0.0, out=row)
        if self.bounded and mx > 1.0 + 1e-12:
            return f"overshoot {mx - 1.0:.3e} above the stable state"
        return clips
