"""Damped incremental statistics (Kitsune's "AfterImage" substrate).

Kitsune computes, for every packet, online statistics of the traffic
seen so far from the same source / channel / socket, where older
observations decay exponentially with age: an observation ``dt`` seconds
old contributes weight ``2^(-lam * dt)``.  For each (group, decay rate)
the maintained state is the damped weight ``w``, linear sum ``ls`` and
squared sum ``ss``, from which weight/mean/std features are read off at
every packet arrival.

The update is inherently sequential per group, so this module keeps the
per-packet loop tight and lets callers batch over (key, lambda)
combinations; results are computed once per dataset and cached by the
engine.
"""

from __future__ import annotations

import sys

import numpy as np

#: Kitsune's default decay rates (per second, in powers of two).
DEFAULT_LAMBDAS = (1.0, 0.1, 0.01)


class IncStat:
    """One damped statistic stream (single group, single decay rate)."""

    __slots__ = ("lam", "w", "ls", "ss", "last_t")

    def __init__(self, lam: float) -> None:
        self.lam = lam
        self.w = 0.0
        self.ls = 0.0
        self.ss = 0.0
        self.last_t = None

    def update(self, t: float, value: float) -> None:
        if self.last_t is not None:
            decay = 2.0 ** (-self.lam * max(t - self.last_t, 0.0))
            self.w *= decay
            self.ls *= decay
            self.ss *= decay
        self.last_t = t
        self.w += 1.0
        self.ls += value
        self.ss += value * value

    @property
    def mean(self) -> float:
        return self.ls / self.w if self.w > 0 else 0.0

    @property
    def std(self) -> float:
        if self.w <= 0:
            return 0.0
        variance = self.ss / self.w - self.mean**2
        return float(np.sqrt(max(variance, 0.0)))


def damped_group_stats(
    group_ids: np.ndarray,
    timestamps: np.ndarray,
    values: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Per-packet damped (weight, mean, std) of ``values`` within groups.

    ``group_ids`` assigns each packet to a group (any integer ids);
    packets must be in time order.  Returns an ``(n, 3)`` array whose row
    ``i`` reflects the group's statistics *after* observing packet ``i``
    -- this is the feature Kitsune attaches to the packet.
    """
    n = len(group_ids)
    if not (len(timestamps) == len(values) == n):
        raise ValueError("group_ids, timestamps and values must align")
    out = np.empty((n, 3), dtype=np.float64)
    streams: dict[int, IncStat] = {}
    ids = group_ids.tolist()
    ts = timestamps.tolist()
    vals = values.tolist()
    for i in range(n):
        stream = streams.get(ids[i])
        if stream is None:
            stream = IncStat(lam)
            streams[ids[i]] = stream
        stream.update(ts[i], vals[i])
        out[i, 0] = stream.w
        out[i, 1] = stream.mean
        out[i, 2] = stream.std
    return out


def damped_interarrival_stats(
    group_ids: np.ndarray, timestamps: np.ndarray, lam: float
) -> np.ndarray:
    """Per-packet damped (weight, mean, std) of inter-arrival times.

    The first packet of each group contributes an inter-arrival of 0.
    """
    n = len(group_ids)
    out = np.empty((n, 3), dtype=np.float64)
    streams: dict[int, IncStat] = {}
    last_seen: dict[int, float] = {}
    ids = group_ids.tolist()
    ts = timestamps.tolist()
    for i in range(n):
        key = ids[i]
        stream = streams.get(key)
        if stream is None:
            stream = IncStat(lam)
            streams[key] = stream
        gap = ts[i] - last_seen.get(key, ts[i])
        last_seen[key] = ts[i]
        stream.update(ts[i], gap)
        out[i, 0] = stream.w
        out[i, 1] = stream.mean
        out[i, 2] = stream.std
    return out


def group_ids_from_columns(columns: list[np.ndarray]) -> np.ndarray:
    """Dense integer group ids for the combination of key columns."""
    if not columns:
        raise ValueError("need at least one key column")
    n = len(columns[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    stacked = np.stack([np.asarray(c) for c in columns], axis=1)
    _, ids = np.unique(stacked, axis=0, return_inverse=True)
    return ids.astype(np.int64)


def kitsune_packet_features(
    table,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
) -> np.ndarray:
    """The full Kitsune-style per-packet feature matrix.

    For each decay rate, damped size statistics over three groupings
    (source host, channel = src->dst, socket = 5-tuple) plus damped
    inter-arrival statistics per source host: 4 streams x 3 statistics
    x len(lambdas) features per packet.  Non-IP packets group by MAC,
    handled by the same key columns the flow assembler uses.
    """
    non_ip = table.l3 == 0
    src_host = np.where(non_ip, table.src_mac.astype(np.uint64), table.src_ip.astype(np.uint64))
    dst_host = np.where(non_ip, table.dst_mac.astype(np.uint64), table.dst_ip.astype(np.uint64))
    source = group_ids_from_columns([src_host])
    channel = group_ids_from_columns([src_host, dst_host])
    socket = group_ids_from_columns(
        [src_host, dst_host, table.src_port, table.dst_port, table.proto]
    )
    sizes = table.length.astype(np.float64)
    ts = table.ts
    blocks = []
    for lam in lambdas:
        blocks.append(damped_group_stats(source, ts, sizes, lam))
        blocks.append(damped_group_stats(channel, ts, sizes, lam))
        blocks.append(damped_group_stats(socket, ts, sizes, lam))
        blocks.append(damped_interarrival_stats(source, ts, lam))
    return np.hstack(blocks)


#: bytes per slot of the objects the slot containers point to: the
#: ``(tag, lam, key)`` tuple with its group key, and the damped floats.
#: Set from full object-graph walks of the state after the F0, F1 and
#: F3 traces, which it matches within 5%.
_SLOT_ITEM_BYTES = 256
#: bytes per host of a last-seen entry's key and timestamp
_HOST_ITEM_BYTES = 56


class KitsuneStreamState:
    """Carried Kitsune accumulators for chunked execution.

    The batch path (:func:`kitsune_packet_features`) partitions packets
    by dense ``np.unique`` group ids and replays every group's damped
    update sequence in row order.  This state keys the same damped
    accumulators by the group *value tuples* instead, which partition
    identically -- so feeding a time-ordered trace through
    :meth:`features` chunk by chunk applies the exact same python-float
    update sequence and reproduces the batch matrix byte for byte, for
    any chunking.

    The accumulators are stored as flat slots: one ``(tag, lam, key) ->
    slot`` dict plus parallel lists holding each slot's ``lam``, ``w``,
    ``ls``, ``ss`` and ``last_t`` (what one :class:`IncStat` holds).
    An update rebinds list items to new floats and never mutates an
    object in place, so a copy of the dicts and lists is a complete,
    independent copy of the state: :meth:`__deepcopy__` is a handful of
    C-level container copies (about 0.5 ms at 10K slots), and
    :meth:`state_bytes` is computed from the slot counts.

    :meth:`evict_idle` bounds the carried state for long-running live
    streams; the op-level stream body never evicts, keeping the
    ``run_stream``-vs-batch equality exact.
    """

    def __init__(self, lambdas: tuple[float, ...] = DEFAULT_LAMBDAS) -> None:
        self.lambdas = tuple(lambdas)
        # slot i is the i-th key inserted: the dict's values are always
        # 0..len-1 in insertion order, which compaction relies on
        self._slots: dict[tuple, int] = {}
        self._lam: list[float] = []
        self._w: list[float] = []
        self._ls: list[float] = []
        self._ss: list[float] = []
        self._last_t: list[float | None] = []
        self._last_seen: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __deepcopy__(self, memo: dict) -> "KitsuneStreamState":
        # every slot value is an immutable float (or None) and every key
        # an immutable tuple, so copying the containers copies the state
        clone = object.__new__(type(self))
        clone.lambdas = self.lambdas
        clone._slots = dict(self._slots)
        clone._lam = self._lam.copy()
        clone._w = self._w.copy()
        clone._ls = self._ls.copy()
        clone._ss = self._ss.copy()
        clone._last_t = self._last_t.copy()
        clone._last_seen = dict(self._last_seen)
        memo[id(self)] = clone
        return clone

    def __setstate__(self, state: dict) -> None:
        """Unpickle either layout.

        Checkpoints written before the flat-slot layout pickled one
        :class:`IncStat` per key under ``_streams``; they convert into
        slots in the dict's insertion order, so a resumed stream
        continues exactly where the legacy state left off.
        """
        state = dict(state)
        streams = state.pop("_streams", None)
        self.__dict__.update(state)
        if streams is not None:
            self._slots = {key: slot for slot, key in enumerate(streams)}
            stats = list(streams.values())
            self._lam = [stat.lam for stat in stats]
            self._w = [stat.w for stat in stats]
            self._ls = [stat.ls for stat in stats]
            self._ss = [stat.ss for stat in stats]
            self._last_t = [stat.last_t for stat in stats]

    def state_bytes(self) -> int:
        """Estimated in-memory size of the carried state, in O(1).

        The containers are measured with ``sys.getsizeof`` (which does
        not descend into items); the objects they hold are counted from
        the slot and host counts at their typical sizes, so the figure
        tracks a full object-graph walk without making one.
        """
        containers = (
            self._slots, self._lam, self._w, self._ls, self._ss,
            self._last_t, self._last_seen,
        )
        return (
            sum(sys.getsizeof(container) for container in containers)
            + len(self._slots) * _SLOT_ITEM_BYTES
            + len(self._last_seen) * _HOST_ITEM_BYTES
        )

    def features(self, table) -> np.ndarray:
        """Per-packet feature rows for one chunk, updating carried state.

        Column layout matches the batch ``np.hstack``: for each decay
        rate, (w, mean, std) over source, channel, socket size streams
        and the source inter-arrival stream.  Each slot update runs the
        float operations of :meth:`IncStat.update`, :attr:`IncStat.mean`
        and :attr:`IncStat.std` in their order, so every row equals the
        batch path's byte for byte.
        """
        non_ip = table.l3 == 0
        src_host = np.where(
            non_ip, table.src_mac.astype(np.uint64), table.src_ip.astype(np.uint64)
        )
        dst_host = np.where(
            non_ip, table.dst_mac.astype(np.uint64), table.dst_ip.astype(np.uint64)
        )
        src = src_host.tolist()
        dst = dst_host.tolist()
        sport = table.src_port.tolist()
        dport = table.dst_port.tolist()
        proto = table.proto.tolist()
        sizes = table.length.astype(np.float64).tolist()
        ts = table.ts.tolist()
        n = len(src)
        lambdas = self.lambdas
        out = np.empty((n, 12 * len(lambdas)), dtype=np.float64)
        slots = self._slots
        lams, ws, lss, sss, last_ts = (
            self._lam, self._w, self._ls, self._ss, self._last_t
        )
        last_seen = self._last_seen
        sqrt = np.sqrt
        for i in range(n):
            t = ts[i]
            size = sizes[i]
            src_key = src[i]
            chan_key = (src[i], dst[i])
            sock_key = (src[i], dst[i], sport[i], dport[i], proto[i])
            gap = t - last_seen.get(src_key, t)
            last_seen[src_key] = t
            col = 0
            for lam in lambdas:
                for tag, key, value in (
                    ("src", src_key, size),
                    ("chan", chan_key, size),
                    ("sock", sock_key, size),
                    ("iat", src_key, gap),
                ):
                    slot = slots.get((tag, lam, key))
                    if slot is None:
                        slot = len(ws)
                        slots[(tag, lam, key)] = slot
                        lams.append(lam)
                        ws.append(0.0)
                        lss.append(0.0)
                        sss.append(0.0)
                        last_ts.append(None)
                    # IncStat.update
                    w = ws[slot]
                    ls = lss[slot]
                    ss = sss[slot]
                    previous = last_ts[slot]
                    if previous is not None:
                        decay = 2.0 ** (-lams[slot] * max(t - previous, 0.0))
                        w *= decay
                        ls *= decay
                        ss *= decay
                    last_ts[slot] = t
                    w += 1.0
                    ls += value
                    ss += value * value
                    ws[slot] = w
                    lss[slot] = ls
                    sss[slot] = ss
                    # IncStat.mean and IncStat.std
                    mean = ls / w if w > 0 else 0.0
                    out[i, col] = w
                    out[i, col + 1] = mean
                    if w <= 0:
                        out[i, col + 2] = 0.0
                    else:
                        variance = ss / w - mean**2
                        out[i, col + 2] = float(sqrt(max(variance, 0.0)))
                    col += 3
        return out

    def evict_idle(self, now: float, max_idle: float = 3600.0) -> int:
        """Drop accumulators idle for more than ``max_idle`` seconds.

        Documented float tolerance of the *live* (evicting) path: at
        the smallest stock decay rate (lam=0.01) a stream idle 3600 s
        re-enters with damped weight <= 2**-36 (~1.5e-11), so dropping
        its size statistics perturbs later features by at most that
        relative weight.  Dropping the inter-arrival baseline treats a
        returning host as new (gap 0 instead of ~max_idle), which is
        the conventional choice for live detectors.  The surviving
        slots are compacted in their insertion order.  Returns the
        number of evicted streams.
        """
        last_ts = self._last_t
        keep = [
            slot
            for slot, t in enumerate(last_ts)
            if t is None or not now - t > max_idle
        ]
        evicted = len(last_ts) - len(keep)
        if evicted:
            # slots are numbered in key insertion order (see __init__)
            keys = list(self._slots)
            self._slots = {keys[slot]: index for index, slot in enumerate(keep)}
            self._lam = [self._lam[slot] for slot in keep]
            self._w = [self._w[slot] for slot in keep]
            self._ls = [self._ls[slot] for slot in keep]
            self._ss = [self._ss[slot] for slot in keep]
            self._last_t = [last_ts[slot] for slot in keep]
        stale_seen = [
            key for key, t in self._last_seen.items() if now - t > max_idle
        ]
        for key in stale_seen:
            del self._last_seen[key]
        return evicted


def kitsune_packet_features_stream(
    table,
    lambdas: tuple[float, ...],
    state: KitsuneStreamState,
) -> np.ndarray:
    """Chunked :func:`kitsune_packet_features` with carried state.

    Feeding the chunks of a time-ordered trace through one
    :class:`KitsuneStreamState` yields rows that concatenate to the
    batch matrix byte for byte (see the class docstring).
    """
    if not isinstance(state, KitsuneStreamState):
        raise TypeError("state must be a KitsuneStreamState")
    if tuple(lambdas) != state.lambdas:
        raise ValueError(
            f"decay rates changed mid-stream: state carries "
            f"{state.lambdas}, got {tuple(lambdas)}"
        )
    return state.features(table)
