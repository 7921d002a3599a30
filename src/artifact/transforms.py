"""Schedule transformations.

Two constructions live here:

* an exact rewrite that swaps an adjacent broadcast/unbounded round pair
  (B then L becomes L then B) while preserving every verdict, plus its
  closure that bubbles every broadcast round behind the unbounded ones;
* a reduction that decides triangle-freeness by padding the graph with
  virtual pendant leaves until all degrees match and running a broadcast-only
  decider for the max-degree-triangle property on the padded graph.

The swap works by shipping state: in the new early unbounded round each node
runs the displaced broadcast round, holds its broadcast and ships the state it
leaves to its neighbors. Each shipped state is decoded once, shared by value
among its receivers (equal bytes, one decoded state), and once the broadcasts
are in its displaced unbounded round is replayed once per run; every receiver
reads the one outbox. Verdicts are preserved exactly because every inner
call gets byte-identical inputs: the broadcast round is the same call one
round earlier, and the state codec (`_codec`) depends on values only, so a
decoded neighbor state re-encodes to the bytes it was sent as, and equal bytes
replay to equal outboxes. The swap costs one round of full-state traffic,
which an unbounded round permits.
"""

from __future__ import annotations

import math
from types import MappingProxyType

from ._bits import count_width as _count_width, encode_int
from ._codec import bytes_to_obj, obj_to_bytes
from .engine import (
    NodeView,
    Protocol,
    RoundKind,
    Schedule,
    default_bandwidth,
)
from .protocols import NamedProtocol, _last_inbox_memo, decode_counts, tomdf_holds_at


class UnsupportedScheduleError(ValueError):
    """The rewrite does not apply to the given schedule position."""


class _SwappedProtocol(Protocol):
    """Runs `inner` (written for `kinds`, with B at position t and L at t+1)
    under the swapped schedule (L at t, B at t+1)."""

    def __init__(self, inner: Protocol, kinds: tuple[RoundKind, ...], t: int):
        self.inner = inner
        self.kinds = kinds
        self.t = t
        # shipped states decoded since the last replay, by their bytes: a
        # replay may change the state it runs on, so none is shared after it
        self._decoded = {}
        # one run's round-t+1 broadcast inbox (every call of a run gets the
        # same tuple) and the displaced L round's outbox for each decoded
        # state, by its identity (held, so no id is reused)
        self._replays = (None, {})

    def init(self, view: NodeView):
        # (me, neighbours, data): data is the inner state, except that after
        # round t it is (inner state after the displaced B round, the
        # broadcast that round made) and after round t+1 it is (that state,
        # the states the neighbours shipped: each is decoded and replayed
        # once, shared by value among its receivers)
        return view.node, view.neighbors, self.inner.init(view)

    def _decode(self, payload):
        try:
            return self._decoded[payload]
        except KeyError:
            state = self._decoded[payload] = bytes_to_obj(payload)
            return state

    def _resume(self, me, data, bcast_inbox):
        """Run this node's displaced L round, and take the message addressed to
        this node from each neighbour's; return this node's state after the
        round and the inbox it would have had. Each decoded state is replayed
        once per run, and every receiver reads the one outbox, so it must stay
        read-only."""
        state_t, payloads = data
        self._decoded.clear()
        step = self.t + 1, RoundKind.LOCAL, bcast_inbox
        state_t1, _ = self.inner.round(state_t, *step)
        seen, replays = self._replays
        if bcast_inbox is not seen:
            replays = {}
            self._replays = bcast_inbox, replays
        got = []
        for sender, st_u in payloads.items():
            hit = replays.get(id(st_u))
            if hit is None:
                hit = replays[id(st_u)] = st_u, self.inner.round(st_u, *step)[1]
            out_u = hit[1]
            if me in out_u:
                got.append((sender, out_u[me]))
        # the shipped inbox is sorted by sender, and so is what it yields
        return state_t1, tuple(got)

    def round(self, state, index, kind, inbox):
        t = self.t
        me, nbrs, data = state
        if index < t or index > t + 2:
            data, out = self.inner.round(data, index, self.kinds[index - 1], inbox)
            return (me, nbrs, data), out
        if index == t:
            # the new unbounded round: run the displaced B round, hold its
            # broadcast and ship the state it leaves
            state_t, out_b = self.inner.round(data, t, RoundKind.BCC, inbox)
            payload = obj_to_bytes(state_t)
            return (me, nbrs, (state_t, out_b)), {u: payload for u in nbrs}
        if index == t + 1:
            # the displaced broadcast
            state_t, out_b = data
            payloads = {u: self._decode(msg) for u, msg in inbox}
            return (me, nbrs, (state_t, payloads)), out_b
        state_t1, inner_inbox = self._resume(me, data, inbox)
        data, out = self.inner.round(state_t1, t + 2, self.kinds[t + 1], inner_inbox)
        return (me, nbrs, data), out

    def decide(self, state, inbox):
        me, _, data = state
        if len(self.kinds) == self.t + 1:
            # the swapped pair was the tail of the schedule
            return self.inner.decide(*self._resume(me, data, inbox))
        return self.inner.decide(data, inbox)


def swap_bl_to_lb(
    protocol: Protocol, schedule: Schedule, t: int
) -> tuple[Protocol, Schedule]:
    """Exchange the broadcast round at position t (1-based) with the unbounded
    round right after it, returning an equivalent protocol for the swapped
    schedule. Raises UnsupportedScheduleError unless kinds[t-1:t+1] == (B, L).
    """
    kinds = tuple(schedule.kinds)
    if not 1 <= t < len(kinds):
        raise UnsupportedScheduleError(f"position {t} out of range")
    if kinds[t - 1] is not RoundKind.BCC or kinds[t] is not RoundKind.LOCAL:
        raise UnsupportedScheduleError(
            f"rounds {t},{t + 1} are {kinds[t - 1].char}{kinds[t].char}, need BL"
        )
    new_kinds = kinds[: t - 1] + (RoundKind.LOCAL, RoundKind.BCC) + kinds[t + 1 :]
    return _SwappedProtocol(protocol, kinds, t), Schedule(new_kinds, schedule.bandwidth)


def normalize_lb(protocol: Protocol, schedule: Schedule) -> tuple[Protocol, Schedule]:
    """Bubble every broadcast round behind every unbounded round by repeated
    swaps (rightmost adjacent B,L pair first). Capped rounds are not handled.
    """
    if any(k is RoundKind.CONGEST for k in schedule.kinds):
        raise UnsupportedScheduleError("schedules with capped rounds are not supported")
    while True:
        t = "".join(k.char for k in schedule.kinds).rfind("BL")
        if t < 0:
            return protocol, schedule
        protocol, schedule = swap_bl_to_lb(protocol, schedule, t + 1)


# ---------------------------------------------------------------------------
# triangle-freeness by degree-padding reduction


def _pendant_assignment(degrees: dict[int, int]) -> dict[int, tuple[int, ...]]:
    """Deterministically name the virtual pendant leaves: each node gets
    (max degree - own degree) of them, drawn from the smallest positive
    integers not used as real ids, in sorted host order."""
    delta = max(degrees.values())
    used = set(degrees)
    fresh = (i for i in range(1, len(degrees) * (delta + 1) + 2) if i not in used)
    out = {}
    for v in sorted(degrees):
        out[v] = tuple(next(fresh) for _ in range(delta - degrees[v]))
    return out


def _chunks(bits: str, size: int) -> list[str]:
    return [bits[i : i + size] for i in range(0, len(bits), size)] or [""]


@_last_inbox_memo
def _row_plan(inbox, width_pad: tuple[int, bool]):
    """What a round-1 degree inbox fixes for every node: (pendants per host,
    padded rank order), or None if a degree does not frame in `width` bits.
    Without `pad` every host has no pendants."""
    width, pad = width_pad
    degrees = decode_counts(inbox, width)
    if degrees is None:
        return None
    pendants = _pendant_assignment(degrees) if pad else dict.fromkeys(degrees, ())
    padded = sorted(set(degrees) | {p for ps in pendants.values() for p in ps})
    return MappingProxyType(pendants), tuple(padded)


@_last_inbox_memo
def _padded_graph(heard, plan):
    """The padded graph that the row pieces in `heard` (the broadcast inboxes
    after the degree round, in round order) spell out under `plan`: (node ->
    frozenset of neighbours, maximum degree), or None if a real node's row
    does not have one bit per padded node."""
    pendants, padded = plan
    rows: dict[int, str] = {}
    for inbox in heard:
        for v, msg in inbox:
            rows[v] = rows.get(v, "") + msg
    if any(len(rows.get(v, "")) != len(padded) for v in pendants):
        return None
    adj = {v: frozenset(padded[i] for i, b in enumerate(rows[v]) if b == "1") for v in pendants}
    for host, ps in pendants.items():
        for p in ps:
            adj[p] = frozenset((host,))
    return MappingProxyType(adj), max(map(len, adj.values()))


class BroadcastRowDecider(Protocol):
    """Broadcast-only decider for the no-triangle-on-max-degree property:
    degrees first, then everyone's adjacency row (over rank order) in pieces
    as wide as the schedule's cap. With `pad`, the degree exchange also fixes
    the virtual pendant leaves that equalize all degrees, and the test runs on
    the padded graph, which decides triangle-freeness: each real node answers
    for itself and for its own pendants. Pendant rows are public knowledge, so
    only real rows travel; the padded schedule runs at `composed_bandwidth`.
    Without `pad` every node has no pendants and the cap is the default.

    Every node hears the same broadcasts, so the plan (`_row_plan`) and the
    padded graph (`_padded_graph`) are decoded once per run, memoised by
    value; a node keeps only its own row pieces and the inboxes it heard,
    and tests only itself and its pendants."""

    def __init__(self, pad: bool):
        self.pad = pad

    def init(self, view: NodeView):
        return {
            "me": view.node,
            "nbrs": set(view.neighbors),
            "n": view.n,
            "plan": None,  # (pendants per host, padded rank order)
            "pieces": (),  # my row, cut to the cap
            "heard": (),  # the row-piece inboxes, one per round after round 2
        }

    def round(self, state, index, kind, inbox):
        n = state["n"]
        if index == 1:
            return state, encode_int(len(state["nbrs"]), _count_width(n))
        if index == 2:
            plan = _row_plan(inbox, (_count_width(n), self.pad))
            if plan is None:
                return state, ""
            pendants, padded = plan
            mine = state["nbrs"] | set(pendants[state["me"]])
            row = "".join("1" if u in mine else "0" for u in padded)
            cap = composed_bandwidth(n) if self.pad else default_bandwidth(n)
            state.update(plan=plan, pieces=tuple(_chunks(row, cap)))
        elif state["plan"] is None:
            return state, ""
        else:
            state["heard"] += (inbox,)
        pieces = state["pieces"]
        return state, pieces[index - 2] if index - 2 < len(pieces) else ""

    def decide(self, state, inbox):
        if state["plan"] is None:
            return False
        padded_graph = _padded_graph((*state["heard"], inbox), state["plan"])
        if padded_graph is None:
            return False
        adj, delta = padded_graph
        pendants = state["plan"][0]
        return all(
            tomdf_holds_at(sorted(adj[v]), delta, adj)
            for v in (state["me"], *pendants[state["me"]])
        )


def tomdf_bcc_schedule(n: int) -> Schedule:
    """Broadcast rounds needed by tomdf_bcc_decider on an n-node graph."""
    rounds = 1 + math.ceil(n / default_bandwidth(n))
    return Schedule.parse(f"B^{rounds}" if rounds > 1 else "B")


def tomdf_bcc_decider(n: int) -> NamedProtocol:
    return NamedProtocol(
        "tomdf-bcc",
        BroadcastRowDecider(pad=False),
        tomdf_bcc_schedule(n),
        "tomdf",
        "tomdf",
    )


def composed_bandwidth(n: int) -> int:
    """Bandwidth of the composed schedule: twice the default cap."""
    return 2 * default_bandwidth(n)


def triangle_freeness_via_tomdf(n: int) -> NamedProtocol:
    """Broadcast-only triangle-freeness protocol for n-node graphs. The round
    count is fixed from n alone via the worst-case padded size n**2."""
    padded_max = max(n * n, 1)
    rounds = 1 + math.ceil(padded_max / composed_bandwidth(n))
    schedule = Schedule((RoundKind.BCC,) * rounds, bandwidth=composed_bandwidth)
    return NamedProtocol(
        "triangle-freeness-via-tomdf",
        BroadcastRowDecider(pad=True),
        schedule,
        "triangle-freeness",
        "triangle-freeness",
    )
