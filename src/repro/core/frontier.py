"""Frontier-batched schedule evaluation (lockstep across siblings).

A *frontier* is a batch of sibling assignments that share every
decision except one stream's, such as the children of a B&B node whose
children are leaves.  This is a batch API for callers that hold such a
set up front (``HaXCoNN.results_from_assignments``, the fuzz oracle);
B&B evaluates its leaves one at a time, because its prune limit
tightens between siblings and a batch ahead of it wasted about half
its members.  Each sibling still pays a full
contention fixed point (Eqs. 7-8) wrapped around the FCFS event-loop
timeline (Eqs. 4-6), and the scalar engine evaluates them one at a
time.  This module evaluates the whole frontier in **lockstep**: one
NumPy program whose arrays carry a leading sibling axis ``B``, so the
per-commit Python interpreter cost -- the dominant term in the scalar
event loop -- is paid once per frontier instead of once per sibling.

Why lockstep is possible: the event loop commits exactly one item per
iteration, every sibling schedules the same number of items (the
workload geometry is fixed by the formulation; only *which* DSA each
item runs on varies), and no sibling's decisions feed another's.  So
``n_items`` rounds of "plan every stream, pick the FCFS winner,
commit" advance every sibling by exactly one item per round, and each
round is a handful of ``(B, S)``-shaped tensor ops.

What batches and what stays scalar (the Eq. 7-8 split):

* **batched** -- the candidate-start planning algebra (Eq. 4-6 ready /
  availability maxima), the FCFS winner selection (lexicographic
  ``(c, r, n)`` minimum), the contention-interval construction (the
  Eq. 7 overlap structure: row-wise sorted bounds, durations, the
  ``active`` incidence tensor), and the Eq. 8 weighted-average
  slowdown projection with per-sibling damping and convergence masks.
* **scalar, per sibling** -- the contention-model kernel itself
  (Eq. 7's slowdown matrix), because it is cached under the discrete
  overlap structure and the bandwidth vector in ``EvalEngine._s_cache``
  and typically *hits* (siblings share structures); on a miss the
  engine's own ``_s_matrix`` runs, so both paths execute literally the
  same code.  Final per-DNN maxima, energy, and the objective also
  stay scalar: they are a few microseconds per sibling and reusing
  the reference's exact expressions keeps bit-identity trivial.

Bit-identity argument (the contract every caller relies on):

* Planning arithmetic is the reference expression with ``+ 0.0`` /
  ``max(x, x)`` no-ops in the no-transition case; every quantity in
  the timeline is ``>= +0.0`` (times, leads, durations -- there is no
  subtraction), so adding ``+0.0`` and equal-value maxima preserve
  bit patterns exactly (IEEE-754: only ``-0.0`` could differ, and
  none can occur).
* The FCFS tie-break -- reference: ascending scan keeping the first
  strict improvement on ``(c, r)`` -- equals the lexicographic
  minimum with lowest stream id on ties, computed here as masked row
  minima plus ``argmax`` on the winner mask (first ``True`` wins).
* Reductions that feed results are row-wise over the *last* axis or
  sequential over a middle axis with ``+0.0`` rows interleaved;
  ``tests/core/test_frontier.py`` certifies the end-to-end claim
  field-by-field against ``evaluate_scratch`` on 60+ seeds, and the
  fuzz oracle re-checks it per scenario.

Fallbacks: serialized / non-resource-constrained formulations,
pipelines, empty workloads, and tiny frontiers fall back to the scalar
engine (``EvalEngine.evaluate`` per member), whose byte-identity is
already certified -- so ``evaluate_frontier`` is *always* exact, and
lockstep is purely a throughput decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.contention.base import NoContentionModel

if TYPE_CHECKING:  # deferred: evalcache imports create a cycle otherwise
    from repro.core.evalcache import EvalEngine
    from repro.core.formulation import EvaluationResult

#: below this many to-compute members the scalar engine (memo + prefix
#: replay) beats the lockstep setup cost; measured in bench_eval
MIN_LOCKSTEP = 6

#: below this batch width the per-iteration row-compression (dropping
#: converged members from timeline passes) costs more than it saves;
#: narrow batches just recompute frozen rows (idempotent: frozen
#: slowdowns reproduce the same start/end bits)
_COMPRESS_MIN = 64

_INF = float("inf")


def evaluate_frontier(
    engine: "EvalEngine",
    batch: Sequence[Sequence[Sequence[str]]],
    *,
    serialized: bool = False,
    check_exclusive: bool = True,
) -> list["EvaluationResult | Exception"]:
    """Evaluate a frontier; results match per-member ``evaluate`` bit
    for bit, with infeasible members returned as exception instances
    in place (the ``evaluate_many`` convention).

    *Every* per-member exception is captured in place, not just
    :class:`ScheduleInfeasible` -- a reference ``KeyError`` from an
    unprofiled transition must not abort the rest of the batch.  Only
    ``ScheduleInfeasible`` is memoized as a "bad" entry, exactly like
    the scalar engine, so a later scalar call re-raises the same
    reference exception untouched."""
    from repro.core.formulation import ScheduleInfeasible

    c = engine.counters
    c.frontier_batches += 1
    c.frontier_members += len(batch)
    keys = [tuple(tuple(a) for a in m) for m in batch]
    out: list["EvaluationResult | Exception | None"] = [None] * len(batch)

    # memo pass + in-frontier dedup: `pending` maps each distinct
    # unmemoized memo-key to every slot waiting on it
    pending: dict[Any, list[int]] = {}
    for j, key in enumerate(keys):
        memo_key = (key, serialized, check_exclusive)
        slots = pending.get(memo_key)
        if slots is not None:  # duplicate of an in-flight member
            c.evals += 1
            c.memo_hits += 1
            slots.append(j)
            continue
        hit = engine.memo.get(memo_key)
        if hit is not None:
            c.evals += 1
            c.memo_hits += 1
            if hit[0] == "bad":
                out[j] = ScheduleInfeasible(hit[1])
            else:
                out[j] = engine._result_from_memo(hit, key, serialized)
            continue
        pending[memo_key] = [j]

    if pending:
        event_loop = not serialized and engine.f.resource_constrained
        lockstep_ok = (
            event_loop
            and not engine._upstreams
            and engine._n_items > 0
            and len(pending) >= MIN_LOCKSTEP
        )
        if lockstep_ok:
            c.frontier_lockstep += len(pending)
            computed = _lockstep(
                engine,
                [mk[0] for mk in pending],
                serialized,
                check_exclusive,
            )
        else:
            c.frontier_fallback += len(pending)
            computed = []
            for memo_key in pending:
                try:
                    computed.append(
                        engine.evaluate(
                            memo_key[0],
                            serialized=serialized,
                            check_exclusive=check_exclusive,
                        )
                    )
                except ValueError:
                    raise  # malformed member: a caller bug, not a result
                except Exception as exc:  # noqa: BLE001 -- in-place
                    computed.append(exc)
        for slots, result in zip(pending.values(), computed):
            for j in slots:
                out[j] = result
    return out  # type: ignore[return-value]


def _lockstep(
    engine: "EvalEngine",
    keys: list[Any],
    serialized: bool,
    check_exclusive: bool,
) -> list["EvaluationResult | Exception"]:
    """Compute distinct unmemoized members in one lockstep batch."""
    from repro.core.formulation import ScheduleInfeasible

    c = engine.counters
    f = engine.f
    n = engine._n_items
    n_profiles = len(f.profiles)

    # -- gather: per-member item rows, reference exceptions in place
    results: list[Any] = [None] * len(keys)
    live: list[int] = []
    stream_rows: list[list[tuple[np.ndarray, ...]]] = []
    for j, key in enumerate(keys):
        c.evals += 1
        c.memo_misses += 1
        if len(key) != n_profiles:
            raise ValueError(
                f"expected {n_profiles} assignments, got {len(key)}"
            )
        try:
            rows = [
                engine.tensor.stream_items(s, a) for s, a in enumerate(key)
            ]
        except Exception as exc:  # noqa: BLE001 -- captured in place
            if isinstance(exc, ScheduleInfeasible):
                # only infeasibilities memoize; a reference KeyError
                # (unprofiled transition) must re-raise fresh later
                engine.memo.put(
                    (key, serialized, check_exclusive), ("bad", str(exc))
                )
            results[j] = exc
            continue
        live.append(j)
        stream_rows.append(rows)
    if not live:
        return results

    B = len(live)
    # (B, n) data matrices, filled stream-block by stream-block: the
    # members of a frontier share most stream rows (siblings differ in
    # one stream), so each block is one gather from the few unique
    # rows instead of B per-member concatenations
    offsets = engine._offsets
    t0_m = np.empty((B, n))
    bw_m = np.empty((B, n))
    acc_m = np.empty((B, n), dtype=int)
    lo_m = np.empty((B, n))
    li_m = np.empty((B, n))
    prev_m = np.empty((B, n), dtype=int)
    mats = (t0_m, bw_m, acc_m, lo_m, li_m, prev_m)
    for s in range(n_profiles):
        uniq: dict[Any, int] = {}
        take: list[int] = []
        rows_u: list[tuple[np.ndarray, ...]] = []
        for pos, j in enumerate(live):
            a = keys[j][s]
            p = uniq.get(a)
            if p is None:
                p = len(uniq)
                uniq[a] = p
                rows_u.append(stream_rows[pos][s])
            take.append(p)
        sel = np.asarray(take)
        blk = slice(int(offsets[s]), int(offsets[s + 1]))
        for field, mat in enumerate(mats):
            mat[:, blk] = np.stack([r[field] for r in rows_u])[sel]
    inf_col = np.full((B, 1), _INF)
    # lead-out and lead-in ride in one (2, B, n+1) tensor so the
    # planning loop gathers both with a single fancy index; column n
    # is the padding slot closed streams point at, and its +inf leads
    # push closed streams' candidate starts to +inf so they lose the
    # FCFS minimum without a separate open-stream mask
    leads_p = np.stack(
        [
            np.concatenate([lo_m, inf_col], axis=1),
            np.concatenate([li_m, inf_col], axis=1),
        ]
    )
    acc_p = np.concatenate([acc_m, np.zeros((B, 1), dtype=int)], axis=1)
    any_lead = bool((lo_m > 0).any() or (li_m > 0).any())

    ctx = _TimelineCtx(engine, leads_p, acc_p, t0_m, prev_m, any_lead)
    contention_free = serialized or isinstance(
        f.contention_model, NoContentionModel
    )
    start = np.empty((B, n))
    end = np.empty((B, n))
    slow = np.ones((B, n))
    iters = np.zeros(B, dtype=int)

    if contention_free:
        ctx.run(slow, start, end)
        c.timeline_passes += B
        iters[:] = 1
    else:
        bw_bytes = [bw_m[pos].tobytes() for pos in range(B)]
        #: slowdown vector frozen (tolerance met)
        conv = np.zeros(B, dtype=bool)
        #: frozen *and* the post-convergence extra pass has run --
        #: such members' start/end rows are final and drop out of
        #: subsequent timeline passes entirely
        done = np.zeros(B, dtype=bool)
        compress = B >= _COMPRESS_MIN
        for it in range(1, f.max_iterations + 1):
            alive = np.nonzero(~done)[0] if compress else ctx.rows
            sub = ctx if len(alive) == B else ctx.select(alive)
            st = np.empty((len(alive), n))
            en = np.empty((len(alive), n))
            sub.run(slow[alive], st, en)
            c.timeline_passes += len(alive)
            start[alive] = st
            end[alive] = en
            # members already frozen just received their extra pass
            done[alive[conv[alive]]] = True
            if bool(done.all()):
                break
            new = _slowdowns_batch(
                engine, bw_m, bw_bytes, start, end, slow, conv, c
            )
            step = np.abs(new - slow).max(axis=1)
            just = (~conv) & (step < f.tolerance)
            upd = ~conv
            slow[upd] = new[upd]
            iters[just] = it
            conv |= just
        else:
            # iteration budget exhausted: non-converged members keep
            # the arrays of the last in-loop pass (reference: the
            # timeline ran *before* the final slowdown update); those
            # frozen on the last iteration still get the extra pass
            iters[~conv] = f.max_iterations
            pend = np.nonzero(conv & ~done)[0]
            if len(pend):
                sub = ctx.select(pend)
                st = np.empty((len(pend), n))
                en = np.empty((len(pend), n))
                sub.run(slow[pend], st, en)
                c.timeline_passes += len(pend)
                start[pend] = st
                end[pend] = en

    # -- per-member finalization: the reference's exact scalar
    # expressions on contiguous row views (no batched reductions feed
    # results directly, so no reduction-order risk here)
    offsets = engine._offsets
    power = engine.tensor.power
    n_profiles = len(f.profiles)
    for row, j in enumerate(live):
        c.computed_evals += 1
        iterations = int(iters[row])
        c.fp_iterations += iterations
        start_r = start[row]
        end_r = end[row]
        end_list = end_r.tolist()
        per_dnn = tuple(
            max(end_list[offsets[m] : offsets[m + 1]])
            if offsets[m + 1] > offsets[m]
            else float(end_r[offsets[m] : offsets[m + 1]].max())
            for m in range(n_profiles)
        )
        makespan = max(end_list) if n else 0.0
        energy = None
        if f.accel_power_w:
            acc_r = acc_m[row]
            energy = float(((end_r - start_r) * power[acc_r]).sum())
        objective = f._objective(per_dnn, serialized, energy)
        key = keys[j]
        engine.memo.put(
            (key, serialized, check_exclusive),
            ("ok", per_dnn, objective, makespan, energy, iterations),
        )
        arrays = (
            engine._stream_vec,
            acc_m[row],
            start_r,
            end_r,
            t0_m[row],
            slow[row],
            bw_m[row],
        )
        results[j] = engine._result(
            per_dnn, objective, makespan, energy, iterations, arrays
        )
    return results


class _TimelineCtx:
    """Per-frontier immutable inputs for the lockstep event loop."""

    __slots__ = (
        "engine",
        "B",
        "S",
        "n",
        "A",
        "leads_p",
        "acc_p",
        "t0_m",
        "prev_m",
        "any_lead",
        "chain_base",
        "lens",
        "rows",
    )

    def __init__(
        self,
        engine: "EvalEngine",
        leads_p: np.ndarray,
        acc_p: np.ndarray,
        t0_m: np.ndarray,
        prev_m: np.ndarray,
        any_lead: bool,
    ) -> None:
        self.engine = engine
        self.B = len(t0_m)
        self.S = len(engine._chains)
        self.n = engine._n_items
        self.A = len(engine.tensor.names)
        self.leads_p = leads_p
        self.acc_p = acc_p
        self.t0_m = t0_m
        self.prev_m = prev_m
        self.any_lead = any_lead
        self.chain_base = engine._offsets[:-1][None, :]  # (1, S)
        self.lens = np.asarray(engine._lens)[None, :]  # (1, S)
        self.rows = np.arange(self.B)

    def select(self, rows_idx: np.ndarray) -> "_TimelineCtx":
        """Row-subset context (members still needing timeline passes).

        Pure row selection: every per-row computation in :meth:`run`
        is independent of the other rows, so a subset pass produces
        bit-identical rows to a full pass.
        """
        return _TimelineCtx(
            self.engine,
            self.leads_p[:, rows_idx],
            self.acc_p[rows_idx],
            self.t0_m[rows_idx],
            self.prev_m[rows_idx],
            self.any_lead,
        )

    def run(
        self, slow: np.ndarray, start: np.ndarray, end: np.ndarray
    ) -> None:
        """One FCFS event-loop pass for every sibling at once.

        Each round plans every open stream's next item (Eq. 4-6
        candidate starts), picks the per-sibling FCFS winner
        (lexicographic minimum on candidate start, became-ready time,
        stream id -- the reference tie-break), and commits it.  All
        arithmetic matches the scalar loop expression for expression;
        see the module docstring for the ``+0.0`` bit-safety argument.
        """
        B, S, n, A = self.B, self.S, self.n, self.A
        any_lead = self.any_lead
        # flat views + flat index bases: np.take / 1-D fancy writes on
        # raveled buffers are markedly cheaper than 2-D fancy indexing,
        # and values are untouched (pure address arithmetic)
        lo_f = self.leads_p[0].ravel()
        li_f = self.leads_p[1].ravel()
        acc_f = self.acc_p.ravel()
        prev_f = self.prev_m.ravel()
        t0_f = self.t0_m.ravel()
        slow_f = slow.ravel()
        start_f = start.reshape(-1)
        end_f = end.reshape(-1)
        rowp = (np.arange(B) * (n + 1))[:, None]  # (B, 1): padded stride
        rown = np.arange(B) * n
        rowa = np.arange(B) * A
        rows = self.rows
        pointer = np.zeros((B, S), dtype=int)
        ready = np.zeros((B, S))
        avail_f = np.zeros(B * A)
        for _ in range(n):
            i_all = self.chain_base + pointer  # (B, S)
            open_m = pointer < self.lens
            g = rowp + np.where(open_m, i_all, n)  # closed -> pad column
            lo = lo_f.take(g)
            li = li_f.take(g)
            acc = acc_f.take(g)
            fe = ready + lo  # flush end (no-lead: + 0.0, bit-safe)
            ls = np.maximum(fe, avail_f.take(rowa[:, None] + acc))
            cst = ls + li  # candidate start; closed streams get +inf
            if any_lead:
                hl = (lo + li) > 0.0  # exact: leads are >= 0
                r = np.where(hl, cst, ready)
            else:
                # closed streams keep a finite became-ready value, but
                # their +inf candidate start already excludes them
                # from the winner mask below
                r = ready
            best_c = cst.min(axis=1)
            eqc = cst == best_c[:, None]
            rm = np.where(eqc, r, _INF)
            best_r = rm.min(axis=1)
            win = eqc & (rm == best_r[:, None])
            best_n = win.argmax(axis=1)  # first True = lowest stream id
            # winner item: flat index into the unpadded (B, n) arrays
            iw = rown + i_all[rows, best_n]
            if any_lead:
                # commit the flush: it occupies the source DSA
                hw = hl[rows, best_n]
                srcw = rowa + prev_f.take(iw)
                few = fe[rows, best_n]
                sel = hw & (few > avail_f.take(srcw))
                if bool(sel.any()):
                    avail_f[srcw[sel]] = few[sel]
            e = best_c + t0_f.take(iw) * slow_f.take(iw)
            start_f[iw] = best_c
            end_f[iw] = e
            ready[rows, best_n] = e
            avail_f[rowa + acc[rows, best_n]] = e
            pointer[rows, best_n] += 1


def _slowdowns_batch(
    engine: "EvalEngine",
    bw_m: np.ndarray,
    bw_bytes: list[bytes],
    start: np.ndarray,
    end: np.ndarray,
    previous: np.ndarray,
    skip: np.ndarray,
    c: Any,
) -> np.ndarray:
    """Batched Eq. 7-8 step; rows in ``skip`` return garbage (their
    slowdowns are frozen by the caller and never read).

    The interval construction keeps *all* ``2n - 1`` sorted-bound
    intervals per row instead of filtering zero-length ones: dropped
    intervals contribute exactly ``+0.0`` to the weighted sums, and the
    middle-axis reduction accumulates rows sequentially in order, so
    the kept rows add up bit-identically to the reference's filtered
    sum (all summands are ``>= +0.0``; certified differentially).
    """
    B, n = start.shape
    # compress to unconverged rows: converged members' slowdowns are
    # frozen by the caller, so their rows would be dead weight here
    u = np.nonzero(~skip)[0]
    su = start[u]
    eu = end[u]
    U = len(u)
    c.slowdown_queries += U
    bounds = np.concatenate([su, eu], axis=1)
    bounds.sort(axis=1)
    a = bounds[:, :-1]
    b = bounds[:, 1:]
    dur = b - a
    keep = dur > 1e-15
    active3 = (su[:, None, :] <= a[:, :, None] + 1e-15) & (
        eu[:, None, :] >= b[:, :, None] - 1e-15
    )
    # vectorized structure dedup: the slowdown matrix depends only on
    # the *discretized* overlap structure (active incidence + kept
    # intervals) and the bandwidth vector, and siblings share most
    # structures -- so unique-ify those keys in one packbits+unique
    # pass and run the cache machinery per unique structure only.
    # (Durations stay continuous and per-row: the weighted average
    # below still runs on every row.)
    pk_a = np.packbits(active3.reshape(U, -1), axis=1)
    pk_k = np.packbits(keep, axis=1)
    raw = np.ascontiguousarray(
        np.concatenate([pk_a, pk_k, bw_m[u].view(np.uint8)], axis=1)
    )
    vk = raw.view(np.dtype((np.void, raw.shape[1]))).ravel()
    _, rep, inv = np.unique(vk, return_index=True, return_inverse=True)
    R = len(rep)
    c.slowdown_cache_hits += U - R
    # per-unique-structure slowdown tensor, engine cache + batched miss
    s3u = np.zeros((R, active3.shape[1], n))
    s_cache = engine._s_cache
    rep_l = rep.tolist()
    miss_pos: list[int] = []
    miss_keys: list[Any] = []
    miss_acts: list[np.ndarray] = []
    miss_bws: list[np.ndarray] = []
    for r_i, idx in enumerate(rep_l):
        row = int(u[idx])
        kp = keep[idx]
        act = active3[idx][kp]  # contiguous (K, n) == reference
        key = (act.shape[0], act.tobytes(), bw_bytes[row])
        s = s_cache.get(key)
        if s is not None:
            c.slowdown_cache_hits += 1
            s3u[r_i][kp] = s
            continue
        miss_pos.append(r_i)
        miss_keys.append(key)
        miss_acts.append(act)
        miss_bws.append(bw_m[row])
    if miss_keys:
        # all cache misses run as one padded batch through the same
        # algebra as the scalar `_s_matrix` (see `_s_matrix_many`)
        s_list = engine._s_matrix_many(miss_acts, miss_bws)
        for r_i, key, s in zip(miss_pos, miss_keys, s_list):
            s_cache.put(key, s)
            s3u[r_i][keep[rep_l[r_i]]] = s
    s3 = s3u[inv]
    # `dur * keep` == `np.where(keep, dur, 0.0)` bitwise: durations are
    # finite and >= +0.0, so * 1.0 is the identity and * 0.0 is +0.0
    wd3 = active3 * (dur * keep)[:, :, None]
    weighted = (wd3 * s3).sum(axis=1)
    covered = wd3.sum(axis=1)
    new_u = np.where(covered > 0, weighted / np.maximum(covered, 1e-30), 1.0)
    # scatter back; skipped rows keep their previous (frozen) values
    new = previous.copy()
    new[u] = 0.25 * previous[u] + 0.75 * new_u
    return new
