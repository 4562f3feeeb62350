"""Message accounting for the simulated distributed backends.

A :class:`CommTracker` stands in for the network: simulated executors
:meth:`send` point-to-point messages (or use the collective helpers) and
close each BSP superstep with :meth:`sync`.  Nothing is transmitted —
the tracker only records who moved how many bytes — but the accounting
follows BSP conventions:

* a self-send is free (it is a local copy);
* empty messages are elided (no zero-byte packets on the wire);
* the **h-relation** of a superstep is the largest per-node traffic,
  ``max over nodes of max(sent, received)`` — the quantity the BSP cost
  model charges for.

The collectives are closed-form O(p) numpy updates and
:meth:`CommTracker.send_many` records a batch of messages in one call;
both elide and validate as one :meth:`CommTracker.send` per message.

Labels attach semantics to the trace: sends and syncs can be tagged
(``"spmv"``, ``"rbgs_mxv"``, ``"halo"``, ...) so experiments can ask
"how many supersteps did the smoother cost" without re-running.

Split-phase supersteps
----------------------

Real halo exchanges are posted asynchronously and waited on after some
independent local work (``MPI_Isend``/``MPI_Wait``).  The tracker
models that with :meth:`post` / :meth:`wait`: ``post`` turns the sends
recorded so far into an in-flight :class:`InFlightExchange`, local
compute performed while it is outstanding is tagged onto the handle
with :meth:`InFlightExchange.overlap`, and ``wait`` closes it into a
:class:`SuperstepStats` whose ``overlapped_work`` the BSP model can
hide behind the wire time.  ``sync`` remains the eager path and is
exactly ``wait(post())`` with nothing overlapped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.util.errors import InvalidValue

#: Recognised communication modes for executors and simulated runs.
COMM_MODES = ("eager", "overlap")

#: Environment variable forcing a communication mode globally
#: (mirrors ``REPRO_SUBSTRATE``): truthy values select split-phase
#: overlapped exchanges everywhere a mode is not pinned explicitly.
OVERLAP_ENV = "REPRO_OVERLAP"

_TRUTHY = ("1", "true", "on", "yes", "overlap")
_FALSY = ("", "0", "false", "off", "no", "eager")


def resolve_comm_mode(mode: Optional[str] = None) -> str:
    """Resolve an explicit mode, the ``REPRO_OVERLAP`` force, or eager.

    Precedence mirrors the substrate registry: an explicit ``mode``
    wins, otherwise the environment force applies, otherwise the
    default-compatible ``"eager"``.
    """
    if mode is not None:
        if mode not in COMM_MODES:
            raise InvalidValue(
                f"unknown comm mode {mode!r}, expected one of {COMM_MODES}"
            )
        return mode
    raw = os.environ.get(OVERLAP_ENV, "").strip().lower()
    if raw in _TRUTHY:
        return "overlap"
    if raw in _FALSY:
        return "eager"
    raise InvalidValue(
        f"unrecognised {OVERLAP_ENV}={raw!r}: use 1/0, on/off, "
        f"overlap/eager"
    )


def pair_batch(pairs: Dict[Tuple[int, int], int]) -> Tuple[np.ndarray, ...]:
    """``{(src, dst): nbytes}`` as ``send_many``'s int64 arrays."""
    ends = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return (ends[:, 0], ends[:, 1],
            np.fromiter(pairs.values(), dtype=np.int64, count=len(pairs)))


@dataclass
class SuperstepStats:
    """The closed ledger of one BSP superstep."""

    index: int
    sent: np.ndarray           # bytes sent per node
    received: np.ndarray       # bytes received per node
    messages: int              # point-to-point messages (self/empty elided)
    label: Optional[str] = None
    #: Local-compute bytes tagged as running while this exchange was in
    #: flight (only split-phase supersteps carry a nonzero value); the
    #: BSP model may hide wire time behind them.
    overlapped_work: float = 0.0
    #: True when the superstep was closed by ``post``/``wait`` rather
    #: than an eager ``sync``.
    posted: bool = False
    #: index of the superstep this one re-drives (fault injection: a
    #: lost exchange is resent as an extra superstep); None normally.
    retry_of: Optional[int] = None

    @property
    def total_bytes(self) -> int:
        return int(self.sent.sum())

    @property
    def h(self) -> int:
        """The h-relation: the busiest node's traffic in either direction."""
        if self.sent.size == 0:
            return 0
        return int(max(self.sent.max(), self.received.max()))


@dataclass
class InFlightExchange:
    """A posted, not-yet-waited exchange (the ``MPI_Request`` analogue)."""

    sent: np.ndarray
    received: np.ndarray
    messages: int
    label: Optional[str] = None
    overlapped_work: float = 0.0
    closed: bool = field(default=False, repr=False)

    def overlap(self, work_bytes: float) -> "InFlightExchange":
        """Tag ``work_bytes`` of local compute as overlapping this
        exchange's flight time (accumulates across calls)."""
        if work_bytes < 0:
            raise InvalidValue(f"negative overlapped work: {work_bytes}")
        if self.closed:
            raise InvalidValue("cannot overlap work on a waited exchange")
        self.overlapped_work += float(work_bytes)
        return self

    @property
    def h(self) -> int:
        if self.sent.size == 0:
            return 0
        return int(max(self.sent.max(), self.received.max()))


class CommTracker:
    """Records sends and supersteps for ``nprocs`` simulated nodes.

    Supports use as a context manager — ``with CommTracker(p) as t:`` —
    which verifies on exit that no posted exchange was left un-waited
    (a leaked ``wait`` is a deadlock in a real runtime).
    """

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise InvalidValue(f"need at least one process, got {nprocs}")
        self.nprocs = nprocs
        self.supersteps: List[SuperstepStats] = []
        self.label_bytes: Dict[str, int] = {}
        self.label_syncs: Dict[str, int] = {}
        self._in_flight: List[InFlightExchange] = []
        self._reset_pending()

    def _reset_pending(self) -> None:
        self._sent = np.zeros(self.nprocs, dtype=np.int64)
        self._received = np.zeros(self.nprocs, dtype=np.int64)
        self._messages = 0

    def reset(self) -> None:
        """Forget everything: supersteps, labels, pending sends and
        in-flight exchanges — the tracker is as freshly constructed."""
        self.supersteps = []
        self.label_bytes = {}
        self.label_syncs = {}
        self._in_flight = []
        self._reset_pending()

    # --- context manager ----------------------------------------------------
    def __enter__(self) -> "CommTracker":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self._in_flight:
            raise InvalidValue(
                f"{len(self._in_flight)} posted exchange(s) never waited on"
            )
        return False

    # --- point-to-point -----------------------------------------------------
    def send(self, src: int, dst: int, nbytes: int,
             label: Optional[str] = None) -> None:
        """Record ``nbytes`` moving from node ``src`` to node ``dst``."""
        if not (0 <= src < self.nprocs) or not (0 <= dst < self.nprocs):
            raise InvalidValue(
                f"rank out of range: {src}->{dst} with {self.nprocs} procs"
            )
        if nbytes < 0:
            raise InvalidValue(f"negative message size: {nbytes}")
        if src == dst or nbytes == 0:
            return
        self._sent[src] += nbytes
        self._received[dst] += nbytes
        self._messages += 1
        if label is not None:
            self.label_bytes[label] = self.label_bytes.get(label, 0) + nbytes

    def send_many(self, src, dst, nbytes,
                  label: Optional[str] = None) -> None:
        """Record ``nbytes[i]`` from ``src[i]`` to ``dst[i]`` (scalars
        broadcast), eliding and checking as :meth:`send` does; every
        check runs before any counter moves."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if src.ndim != 1 or not src.shape == dst.shape == nbytes.shape:
            src, dst, nbytes = np.broadcast_arrays(
                *np.atleast_1d(src, dst, nbytes))
        # one unsigned max: negative ranks wrap to huge values
        ranks = np.concatenate((src, dst)).view(np.uint64)
        if ranks.max(initial=0) >= self.nprocs:
            raise InvalidValue(f"rank out of range in a batch of {src.size} "
                               f"messages with {self.nprocs} procs")
        keep = (src != dst) & (nbytes > 0)
        if not keep.all():
            if nbytes.min() < 0:
                raise InvalidValue(f"negative message size: {nbytes.min()}")
            src, dst, nbytes = src[keep], dst[keep], nbytes[keep]
        if not nbytes.size:
            return
        np.add.at(self._sent, src, nbytes)
        np.add.at(self._received, dst, nbytes)
        self._messages += int(nbytes.size)
        if label is not None:
            self.label_bytes[label] = (self.label_bytes.get(label, 0)
                                       + int(nbytes.sum()))

    # --- collectives --------------------------------------------------------
    def broadcast(self, root: int, nbytes: int,
                  label: Optional[str] = None) -> None:
        """``root`` sends ``nbytes`` to every other node."""
        self.send_many(root, np.arange(self.nprocs), nbytes, label=label)

    def allgather(self, sizes, label: Optional[str] = None) -> None:
        """Every node sends its share to every other node.

        ``sizes[k]`` is the number of bytes node ``k`` contributes; after
        the superstep every node holds all shares (the ALP backend's
        vector replication before each ``mxv``).
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.shape[0] != self.nprocs:
            raise InvalidValue(
                f"allgather needs one share per node: got {sizes.shape[0]}, "
                f"expected {self.nprocs}"
            )
        if sizes.min(initial=0) < 0:
            raise InvalidValue(f"negative message size: {sizes.min()}")
        fanout = self.nprocs - 1
        messages = int(np.count_nonzero(sizes)) * fanout
        if not messages:
            return
        total = int(sizes.sum())
        self._sent += sizes * fanout
        self._received += total - sizes
        self._messages += messages
        if label is not None:
            self.label_bytes[label] = (self.label_bytes.get(label, 0)
                                       + total * fanout)

    def allreduce_scalar(self, nbytes: int = 8,
                         label: Optional[str] = None) -> None:
        """All-to-all exchange of one scalar (CG's dot products)."""
        self.allgather(np.full(self.nprocs, nbytes), label=label)

    # --- split-phase supersteps ---------------------------------------------
    def post(self, label: Optional[str] = None) -> InFlightExchange:
        """Turn the sends recorded so far into an in-flight exchange.

        Sends recorded afterwards belong to the *next* exchange (or the
        next eager superstep).  The exchange stays open — accumulating
        overlapped-work tags — until :meth:`wait` closes it.
        """
        handle = InFlightExchange(
            sent=self._sent,
            received=self._received,
            messages=self._messages,
            label=label,
        )
        self._in_flight.append(handle)
        self._reset_pending()
        return handle

    def wait(self, handle: Optional[InFlightExchange] = None,
             label: Optional[str] = None) -> SuperstepStats:
        """Close a posted exchange into a superstep (FIFO by default).

        The barrier semantics are unchanged — one ``wait`` is one
        superstep boundary — but the returned stats carry the work
        tagged onto the handle while it was in flight, which the BSP
        model may hide behind the wire time.
        """
        if handle is None:
            if not self._in_flight:
                raise InvalidValue("wait() with no posted exchange")
            handle = self._in_flight[0]
        if handle.closed:
            raise InvalidValue("exchange already waited on")
        try:
            self._in_flight.remove(handle)
        except ValueError:
            raise InvalidValue("handle does not belong to this tracker")
        handle.closed = True
        label = label if label is not None else handle.label
        stats = SuperstepStats(
            index=len(self.supersteps),
            sent=handle.sent,
            received=handle.received,
            messages=handle.messages,
            label=label,
            overlapped_work=handle.overlapped_work,
            posted=True,
        )
        self.supersteps.append(stats)
        if label is not None:
            self.label_syncs[label] = self.label_syncs.get(label, 0) + 1
        if obs.enabled():
            obs.event("comm/wait", "comm", {
                "index": stats.index, "label": label, "h": stats.h,
                "bytes": stats.total_bytes, "messages": stats.messages,
                "posted": True,
                "overlapped_work": stats.overlapped_work,
            })
        return stats

    @property
    def in_flight(self) -> int:
        """Number of posted exchanges not yet waited on."""
        return len(self._in_flight)

    # --- eager supersteps ---------------------------------------------------
    def sync(self, label: Optional[str] = None) -> SuperstepStats:
        """Close the current superstep and return its statistics."""
        stats = SuperstepStats(
            index=len(self.supersteps),
            sent=self._sent,
            received=self._received,
            messages=self._messages,
            label=label,
        )
        self.supersteps.append(stats)
        if label is not None:
            self.label_syncs[label] = self.label_syncs.get(label, 0) + 1
        self._reset_pending()
        if obs.enabled():
            obs.event("comm/sync", "comm", {
                "index": stats.index, "label": label, "h": stats.h,
                "bytes": stats.total_bytes, "messages": stats.messages,
                "posted": False,
            })
        return stats

    # --- fault-injected retries ----------------------------------------------
    def retry(self, stats: SuperstepStats,
              label: Optional[str] = None) -> SuperstepStats:
        """Re-drive a closed superstep's messages as an extra superstep.

        The fault model prices a lost exchange as a full resend: the
        retry moves the same bytes between the same nodes, closes its
        own barrier, and carries ``retry_of`` pointing at the original
        so traces can separate first deliveries from re-deliveries.
        Nothing is overlapped — a retry is pure exposed wire time.
        """
        label = label if label is not None else stats.label
        retry = SuperstepStats(
            index=len(self.supersteps),
            sent=stats.sent,
            received=stats.received,
            messages=stats.messages,
            label=label,
            retry_of=stats.index,
        )
        self.supersteps.append(retry)
        if label is not None:
            self.label_bytes[label] = (self.label_bytes.get(label, 0)
                                       + retry.total_bytes)
            self.label_syncs[label] = self.label_syncs.get(label, 0) + 1
        if obs.enabled():
            obs.event("comm/retry", "comm", {
                "index": retry.index, "retry_of": stats.index,
                "label": label, "h": retry.h, "bytes": retry.total_bytes,
                "messages": retry.messages,
            })
        return retry

    # --- aggregates ---------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(s.total_bytes for s in self.supersteps)

    @property
    def num_syncs(self) -> int:
        return len(self.supersteps)

    @property
    def total_h(self) -> int:
        return sum(s.h for s in self.supersteps)

    @property
    def total_overlapped_work(self) -> float:
        """Bytes of local compute tagged as overlapping some exchange."""
        return sum(s.overlapped_work for s in self.supersteps)

    def max_send_per_node(self) -> int:
        """The largest per-node send volume of any single superstep."""
        if not self.supersteps:
            return 0
        return int(max(s.sent.max() for s in self.supersteps))
