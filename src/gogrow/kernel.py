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
behind the front that a step provably leaves as they are (see _Kernel):
a plateau, a settled stretch, or the left part of a wave of P that its
moving frame leaves unchanged.  A call goes on with the bands and proofs
of the last one while the rows are as that call left them, so an event
that only reads the rows, such as an emit, costs the kernel one
comparison of the rows.
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
# the steps between two proofs of an observed stretch in one call, while
# the drift is constant and the bands have not settled
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

    advance steps only a band of each slice (a row, or the first row of
    rows that share chi) from its first stepped node on.  The nodes left
    of it are held: a step provably leaves them as they are, bit for bit.
    _find sets a band from one of two proofs.

    - A constant run.  The leading run of the row's left value c holds
      when the kernel's update of [c, c, c] under the current weights,
      computed as advance computes it with R(c) included, gives c
      (_keeps; R is 0 left of the density model's switch node).  The band
      starts one node left of the first node off c.  This needs nothing
      but the weights, so it is the proof of a kernel's first step and of
      the first after a write, and the only one of the log-shifted frame,
      whose weights change every step: there it is checked again for
      each new set of weights.
    - An observed stretch.  At the second step after a write or new
      weights, when the weights are those of the first, a node that the
      first step left unchanged, with both its neighbours, has that
      step's inputs again and comes out the same.  With f the first node
      that step changed (for the density model no further right than its
      switch node, so that R was 0 at both steps), the band starts
      _MARGIN short of f - 1, when that holds more than the run.  New
      weights (the short last step) void it.  While the drift is
      constant, the proof is taken again every _EVERY steps, on the last
      step and its input.  Such a later proof moves a band by _MARGIN
      nodes or more, so a band follows a plateau that advances behind
      its front.

    Either proof is kept by watching the band's first node: while a step
    leaves it unchanged, the held nodes see the inputs they saw; when it
    changes, the band widens by _MARGIN (_widen).  The density model's
    band also widens to left of its switch node when that moves into it.
    A call goes on where the last one stopped, with its bands, the
    steps since they were proved and the next proof due, so advance(a);
    advance(b) steps and holds as advance(a + b) does.  A write to the
    rows between calls voids that: the kernel keeps the bytes of cur as
    it left them and compares them at the next call, so after a
    recentring shift, a test's write or a guard's clip (a tripped guard
    keeps nothing) the next call proves its bands again from the run; a
    band inside the run stays where it was while it is fewer than
    _MARGIN nodes short of the new start, so that views are built
    rarely.  New weights keep the bands that _reweigh proves under them,
    as within a call, and count the steps since the proofs from 0 again.
    Held nodes are copied from v in the first step so counted and then
    sit in both buffers, as do the two edge nodes after the second, so
    later steps write neither; rows that share chi rewrite
    their edges every step, as their stencil runs across row boundaries.
    The guard still reads every node, and held counts the node-steps
    held.  The reaction runs from the first band to the end of the array.
    nonlocal_p has no run, so its band starts again at node 1 after a
    write; its node 0 keeps the linear rule 2 out[1] - out[2], which gives
    node 0 its value again while nodes 1 and 2 are held.  Its stretch
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
        # the first and one-past-last node of each slice; rows that share chi
        # share their weights and take one stencil over the whole array,
        # whose values across a row boundary the edge rules then overwrite
        span = size if len(set(self.chi)) == 1 else n
        self._spans = [(lo, lo + span) for lo in range(0, size, span)]
        # the band of each slice: its first stepped node (1: all of them)
        # and the value of the run left of it (None: no run proves it); its
        # legs, cur into nxt and nxt into cur (None: built again); whether
        # nxt holds a step of cur under the current weights (see _find)
        self._start = [1] * len(self._spans)
        self._const: list = [None] * len(self._spans)
        self._legs: list | None = None
        self._witness = 0
        self.held = 0
        # the bytes of cur as the last call left them (None: that call's
        # guard tripped, or none was made), the steps taken since the
        # proofs (0: none yet under the current weights), and the step of
        # the next observed proof, counted as those
        self._left: bytes | None = None
        self._done = 0
        self._proof_at = 1
        # nodes 0, 1, 2 and n-1 of every row; plain indices for one row,
        # which cost less than strided views
        self._edges = [i if self.rows == 1 else slice(i, None, n) for i in (0, 1, 2, n - 1)]

    def _leg(self, v: np.ndarray, out: np.ndarray) -> tuple:
        """v, out, the reaction's views of v, R and the mask, the stencils'
        views of each slice from its first stepped node on, and the held
        nodes to copy."""
        r = self._react
        rows, copies = [], []
        for (lo, hi), s in zip(self._spans, self._start):
            a = lo + s
            rows.append((v[a - 1 : hi], v[a : hi - 1], out[a : hi - 1], r[a - 1 : hi], r[a : hi - 1]))
            if s > 1:
                copies.append((out[lo + 1 : a], v[lo + 1 : a]))
        a = self._start[0] - 1
        if a == 0:
            return v, out, v, r, self._mask, rows, copies
        mask = None if self._mask is None else self._mask[a:]
        return v, out, v[a:], r[a:], mask, rows, copies

    def _reweigh(self, dt: float, drift: float) -> None:
        """The (v-weights, R-weights) of every slice for this dt and drift;
        a band that these weights do not prove steps in full."""
        lam = dt / (self.dx * self.dx)
        d = dt * drift / (2.0 * self.dx)
        self._weights = []
        for _, chi in zip(self._spans, self.chi):
            m = dt * chi / (2.0 * self.dx)
            wv = np.array([lam - d + m, -2.0 * lam, lam + d - m])
            # with m = 0 (FKPP, chi = 0) the R-stencil is one multiply
            self._weights.append((wv, np.array([-m, dt, m]) if m else None))
        self._key = (dt, drift)
        for j, c in enumerate(self._const):
            # an observed stretch was proved under the old weights
            if self._start[j] > 1 and (c is None or not self._keeps(j, c)):
                self._widen(j, 1)

    def _keeps(self, j: int, c: float) -> bool:
        """Whether slice j steps a run of value c to c bit for bit: its
        update of [c, c, c] under the current weights, as advance computes
        it, R(c) included (0 for the density model, left of its switch)."""
        wv, wr = self._weights[j]
        run, r = np.array((c, c, c)), np.zeros(3)
        if self.model is not Model.NONLOCAL_RHO:
            self._reaction(self, run, r, None)
        # each + and * rounds as numpy's elementwise ones do
        out = c + float(np.correlate(run, wv)[0])
        out += float(r[1]) * self._key[0] if wr is None else float(np.correlate(r, wr)[0])
        return out == c and math.copysign(1.0, out) == math.copysign(1.0, c)

    def _find(self) -> None:
        """Set the band of each slice, from its first row.

        After a write, from the constant run of cur: one node left of the
        first node off its left value c when _keeps(c), or where the band
        was while that is inside the run and fewer than _MARGIN nodes
        short.  When nxt holds a step of cur under the current weights
        (_witness, the steps since a write or new weights: 1, then every
        _EVERY steps), from that step: _MARGIN short of
        one node left of the first node it changed, or the density
        model's switch node, if that is further right.  Node n - 1 is
        never held.
        """
        n, cur = self.n, self.cur.view(np.int64)  # bits: -0.0 is not 0.0
        witness, self._witness = self._witness, 0
        nxt = self.nxt.view(np.int64) if witness else None
        # a later proof moves a band only by _MARGIN or more, so that views
        # are built rarely
        reach = 1 if witness == 1 else _MARGIN
        for j, (lo, _) in enumerate(self._spans):
            if witness:
                changed = cur[lo : lo + n - 1] != nxt[lo : lo + n - 1]
                first = int(np.argmax(changed))
                if not changed[first]:
                    first = n - 1
                if self._mask is not None:
                    at = self.switch[lo // n]
                    first = 0 if at is None else min(first, at)
                start = first - 1 - _MARGIN
                if start >= self._start[j] + reach:
                    self._start[j], self._const[j] = start, None
                    self._legs = None
                continue
            c = float(self.cur[lo])
            start = (int(np.argmax(cur[lo : lo + n - 1] != cur[lo])) or n - 1) - 1
            if start < 2 or not self._keeps(j, c):
                start = 1
            if 1 < self._start[j] <= start < self._start[j] + _MARGIN:
                start = self._start[j]
            if start != self._start[j]:
                self._legs = None
            self._start[j], self._const[j] = (start, c) if start > 1 else (1, None)

    def _widen(self, j: int, start: int) -> None:
        """Step slice j from node start on, if that widens its band."""
        start = max(start, 1)
        if start < self._start[j]:
            self._start[j] = start
            if start == 1:
                self._const[j] = None
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
        of the row, and the band of each slice kept left of its switch."""
        n, mask = self.n, self._mask
        for j, k in enumerate(self.switch):
            lo = j * n
            at = None if k is None else self._locate(v[lo : lo + n], k)
            if at is None:
                at = self._suffix_switch(v[lo : lo + n], mask[lo : lo + n])
            elif at != k:
                mask[lo + min(at, k) : lo + max(at, k)] = float(at < k)
            self.switch[j] = at
        for j, (lo, _) in enumerate(self._spans):
            if self._start[j] > 1:
                at = self.switch[lo // n]
                if at is None or at <= self._start[j]:
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
        cur into nxt and back, stepping only each slice's band, and leave
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
        shared = len(self._spans) < self.rows
        switches = None if self._mask is None else self._switches
        # the weights of the first step; only the log-shifted frame's drift
        # changes from step to step, so only its weights are checked again
        times = iter(times)
        t = next(times, None)
        if t is None:
            return 0, None
        times = itertools.chain((t,), times)
        drift = drift_at(t)
        if self._key != (dt, drift):
            # new weights: as within a call, _reweigh keeps only the bands
            # they prove; the steps since the proofs count from 0
            self._reweigh(dt, drift)
            self._done = 0
        if self._left is None or self.cur.tobytes() != self._left:
            self._find()  # the rows were written, or no call left them
            self._done = 0
        # with neither, this call goes on with the last call's bands and
        # proofs, as one call would
        key, done = self._key, self._done
        if not done:
            self._proof_at = 1
        shifting = self.frame.r != 0.0
        legs, watch, holds = self._banded()
        # the steps of this call that copy held nodes, the first counted
        # from 0, and that write the edges, the first two
        taken, since, guarded, proof_at = 0, 0, None, self._proof_at - done
        copy_at, edges_until = 1 - done, 2 - done
        for t in times:
            if shifting:
                drift = drift_at(t)
                if self._key != (dt, drift):
                    self._reweigh(dt, drift)
            if taken == proof_at and self._key == key:
                # nxt holds the last step of cur, under these weights
                self._witness = done + taken
                self._find()
                # prove again while the drift is constant, so that a band
                # follows a plateau that advances
                if not shifting:
                    proof_at += _EVERY
            if switches is not None:
                switches(legs[taken % 2][0])
            if self._legs is None:
                self.held += holds * (taken - since)
                legs, watch, holds = self._banded()
                since = taken
            v, out, v_span, r_span, mask, rows, copies = legs[taken % 2]
            taken += 1
            react(self, v_span, r_span, mask)
            for (v_row, v_inner, rhs, r_row, r_inner), (wv, wr) in zip(rows, self._weights):
                np.add(v_inner, np.correlate(v_row, wv), out=rhs)
                if wr is None:
                    r_inner *= dt
                    rhs += r_inner
                else:
                    rhs += np.correlate(r_row, wr)
            if taken == copy_at:
                for out_held, v_held in copies:
                    out_held[...] = v_held
            if taken <= edges_until or shared:
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
            for j, at in watch:
                # values, not bits: no node's step depends on the sign of a
                # zero input, nor gives -0.0
                if out[at] != v[at]:
                    # the band's first node changed: widen by a margin, so
                    # that a band that recedes steadily rebuilds views rarely
                    self._widen(j, at - self._spans[j][0] - _MARGIN)
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
        the (slice, first stepped node) of each band, and the nodes they
        hold per step."""
        if self._legs is None:
            self._legs = [self._leg(self.cur, self.nxt), self._leg(self.nxt, self.cur)]
        watch = [(j, lo + s) for j, ((lo, _), s) in enumerate(zip(self._spans, self._start)) if s > 1]
        return self._legs, watch, sum(self._start) - len(self._start)

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
