"""Tests for the streaming (online) detection mode."""

import pickle
import sys

import numpy as np
import pytest

from repro.algorithms import build_algorithm
from repro.core.incstats import (
    IncStat,
    KitsuneStreamState,
    kitsune_packet_features,
    kitsune_packet_features_stream,
)
from repro.core.operations import OPERATIONS
from repro.core.streaming import (
    StreamingFlowDetector,
    StreamingKitsune,
    chunked,
)
from repro.net.table import PacketTable
from repro.traffic import AttackSpec, NetworkScenario


@pytest.fixture(scope="module")
def benign_trace():
    return NetworkScenario(
        name="benign",
        device_counts={"camera": 1, "thermostat": 1, "smart_hub": 1},
        duration=120.0,
        seed=31,
    ).generate()


@pytest.fixture(scope="module")
def attack_trace():
    return NetworkScenario(
        name="attacked",
        device_counts={"camera": 1, "thermostat": 1, "smart_hub": 1},
        duration=120.0,
        seed=32,
        attacks=(AttackSpec("dos_syn_flood", 0.4, 0.7, intensity=0.2),),
    ).generate()


class TestChunking:
    def test_chunks_partition_trace(self, benign_trace):
        chunks = list(chunked(benign_trace, 10.0))
        assert sum(len(c) for c in chunks) == len(benign_trace)
        # chunks are time-ordered and disjoint
        for left, right in zip(chunks, chunks[1:]):
            assert left.ts.max() <= right.ts.min() + 10.0

    def test_invalid_chunk_size(self, benign_trace):
        with pytest.raises(ValueError):
            list(chunked(benign_trace, 0.0))

    def test_empty_trace(self):
        assert list(chunked(PacketTable.empty(), 5.0)) == []


class TestStreamingKitsune:
    @pytest.fixture(scope="class")
    def detector(self, benign_trace):
        small = benign_trace.select(np.arange(0, len(benign_trace), 4))
        return StreamingKitsune.train(small, n_epochs=10, seed=0)

    def test_verdict_per_packet(self, detector, attack_trace):
        chunk = attack_trace.select(np.arange(200))
        verdicts = detector.process_chunk(chunk)
        assert len(verdicts) == 200
        assert all(v.unit == "packet" for v in verdicts)

    def test_chunking_invariance(self, benign_trace, attack_trace):
        """Scores must not depend on chunk boundaries."""
        small_benign = benign_trace.select(np.arange(0, len(benign_trace), 4))
        sample = attack_trace.select(np.arange(400))

        one = StreamingKitsune.train(small_benign, n_epochs=5, seed=0)
        single = [
            v.score for v in one.process_chunk(sample)
        ]
        two = StreamingKitsune.train(small_benign, n_epochs=5, seed=0)
        halves = []
        halves += two.process_chunk(sample.select(np.arange(0, 150)))
        halves += two.process_chunk(sample.select(np.arange(150, 400)))
        assert np.allclose(single, [v.score for v in halves])

    def test_flags_flood_packets(self, detector, attack_trace):
        verdicts = []
        for chunk in chunked(attack_trace, 20.0):
            verdicts.extend(detector.process_chunk(chunk))
        labels = attack_trace.sort_by_time().label
        flagged = np.array([v.is_anomalous for v in verdicts])
        # flood traffic is flagged at a much higher rate than benign
        flood_rate = flagged[labels == 1].mean()
        benign_rate = flagged[labels == 0].mean()
        assert flood_rate > benign_rate

    def test_empty_chunk(self, detector):
        assert detector.process_chunk(PacketTable.empty()) == []


class LegacyKitsuneState:
    """The carried Kitsune state as it was before flat slots: one
    :class:`IncStat` per ``(tag, lam, key)``, dropped by
    :meth:`evict_idle`.  The oracle for the flat-slot state."""

    def __init__(self, lambdas):
        self.lambdas = tuple(lambdas)
        self._streams = {}
        self._last_seen = {}

    def features(self, table):
        non_ip = table.l3 == 0
        src = np.where(non_ip, table.src_mac.astype(np.uint64),
                       table.src_ip.astype(np.uint64)).tolist()
        dst = np.where(non_ip, table.dst_mac.astype(np.uint64),
                       table.dst_ip.astype(np.uint64)).tolist()
        sport = table.src_port.tolist()
        dport = table.dst_port.tolist()
        proto = table.proto.tolist()
        sizes = table.length.astype(np.float64).tolist()
        ts = table.ts.tolist()
        out = np.empty((len(src), 12 * len(self.lambdas)))
        for i, t in enumerate(ts):
            chan = (src[i], dst[i])
            sock = (src[i], dst[i], sport[i], dport[i], proto[i])
            gap = t - self._last_seen.get(src[i], t)
            self._last_seen[src[i]] = t
            col = 0
            for lam in self.lambdas:
                for tag, key, value in (("src", src[i], sizes[i]),
                                        ("chan", chan, sizes[i]),
                                        ("sock", sock, sizes[i]),
                                        ("iat", src[i], gap)):
                    stream = self._streams.setdefault(
                        (tag, lam, key), IncStat(lam)
                    )
                    stream.update(t, value)
                    out[i, col:col + 3] = (stream.w, stream.mean, stream.std)
                    col += 3
        return out

    def evict_idle(self, now, max_idle=3600.0):
        stale = [key for key, stream in self._streams.items()
                 if stream.last_t is not None
                 and now - stream.last_t > max_idle]
        for key in stale:
            del self._streams[key]
        for key in [k for k, t in self._last_seen.items()
                    if now - t > max_idle]:
            del self._last_seen[key]
        return len(stale)


class TestKitsuneStreamState:
    """Chunk-boundary invariance of the carried Kitsune statistics."""

    LAMBDAS = (1.0, 0.1)

    def batch(self, table):
        return kitsune_packet_features(table, self.LAMBDAS)

    def streamed(self, table, chunks):
        state = KitsuneStreamState(self.LAMBDAS)
        parts = [
            kitsune_packet_features_stream(chunk, self.LAMBDAS, state)
            for chunk in chunks
        ]
        return np.concatenate(parts, axis=0)

    def test_single_packet_chunks_match_batch(self, benign_trace):
        table = benign_trace.sort_by_time().select(np.arange(120))
        chunks = [table.select(np.array([i])) for i in range(len(table))]
        assert np.array_equal(self.batch(table), self.streamed(table, chunks))

    def test_one_second_chunks_match_batch(self, benign_trace):
        table = benign_trace.sort_by_time()
        streamed = self.streamed(table, chunked(table, 1.0))
        assert np.array_equal(self.batch(table), streamed)

    def test_whole_trace_chunk_matches_batch(self, benign_trace):
        table = benign_trace.sort_by_time()
        streamed = self.streamed(table, [table])
        assert np.array_equal(self.batch(table), streamed)

    def test_stream_wrapper_validates_state(self, benign_trace):
        with pytest.raises(TypeError):
            kitsune_packet_features_stream(benign_trace, self.LAMBDAS, {})
        state = KitsuneStreamState((1.0,))
        with pytest.raises(ValueError):
            kitsune_packet_features_stream(
                benign_trace, self.LAMBDAS, state
            )

    def test_evict_idle_bounds_state(self, benign_trace):
        table = benign_trace.sort_by_time()
        state = KitsuneStreamState(self.LAMBDAS)
        state.features(table)
        populated = len(state)
        assert populated > 0
        # nothing is older than the trace itself
        assert state.evict_idle(float(table.ts.max()), 3600.0) == 0
        assert len(state) == populated
        # everything is idle from far enough in the future
        evicted = state.evict_idle(float(table.ts.max()) + 1e6, 3600.0)
        assert evicted == populated
        assert len(state) == 0

    def test_state_survives_eviction(self, benign_trace):
        table = benign_trace.sort_by_time()
        state = KitsuneStreamState(self.LAMBDAS)
        state.features(table)
        state.evict_idle(float(table.ts.max()) + 1e6, 3600.0)
        # an evicted stream restarts cleanly, like a fresh host
        fresh = KitsuneStreamState(self.LAMBDAS)
        assert np.array_equal(state.features(table), fresh.features(table))

    def test_compacting_eviction_matches_the_legacy_evicting_path(
        self, benign_trace
    ):
        table = benign_trace.sort_by_time()
        state = KitsuneStreamState(self.LAMBDAS)
        legacy = LegacyKitsuneState(self.LAMBDAS)
        ours, theirs, evictions = [], [], 0
        for chunk in chunked(table, 5.0):
            ours.append(state.features(chunk))
            theirs.append(legacy.features(chunk))
            now = float(chunk.ts.max())
            # a short idle limit evicts every few chunks, so streams
            # leave and re-enter the compacted slots
            evicted = state.evict_idle(now, 8.0)
            assert evicted == legacy.evict_idle(now, 8.0)
            evictions += evicted
            assert len(state) == len(legacy._streams)
            assert list(state._slots) == list(legacy._streams)
            assert list(state._slots.values()) == list(range(len(state)))
        assert evictions > 0
        assert (np.concatenate(ours).tobytes()
                == np.concatenate(theirs).tobytes())

    def test_legacy_checkpoint_resumes_byte_equal(self, benign_trace):
        """A state pickled in the pre-slot layout (``_streams`` of
        :class:`IncStat` plus ``_last_seen``) unpickles into slots and
        continues as if the stream had never stopped."""
        table = benign_trace.sort_by_time()
        half = len(table) // 2
        legacy = LegacyKitsuneState(self.LAMBDAS)
        head = legacy.features(table.select(np.arange(half)))
        # what an older checkpoint holds: this class, that __dict__
        shell = object.__new__(KitsuneStreamState)
        shell.__dict__.update(vars(legacy))
        resumed = pickle.loads(pickle.dumps(shell))
        assert len(resumed) == len(legacy._streams)
        assert list(resumed._slots) == list(legacy._streams)
        tail = resumed.features(table.select(np.arange(half, len(table))))
        assert (np.concatenate([head, tail]).tobytes()
                == self.batch(table).tobytes())
        # and a flat-slot state round-trips through pickle unchanged
        again = pickle.loads(pickle.dumps(resumed))
        assert vars(again) == vars(resumed)

    def test_state_bytes_costs_the_same_at_any_slot_count(
        self, benign_trace, monkeypatch
    ):
        table = benign_trace.sort_by_time()
        small = KitsuneStreamState(self.LAMBDAS)
        small.features(table.select(np.arange(5)))
        large = KitsuneStreamState(self.LAMBDAS)
        large.features(table)
        assert len(large) > 10 * len(small)
        calls = []
        real = sys.getsizeof

        def counting(obj, *default):
            calls.append(type(obj))
            return real(obj, *default)

        monkeypatch.setattr(sys, "getsizeof", counting)
        sized = [small.state_bytes(), large.state_bytes()]
        monkeypatch.undo()
        assert len(calls) % 2 == 0
        assert calls[: len(calls) // 2] == calls[len(calls) // 2:]
        assert 0 < sized[0] < sized[1]


class TestConvertedOpStreams:
    """Every streamed op is chunk-size invariant through the body the
    engine streams it with: ``stream_fn`` for stateful ops, the one
    ``fn`` body for stateless ones."""

    CONVERTED = {
        "ProtocolOneHot": {},
        "PacketFields": {"fields": ["length", "ttl"]},
        "NprintEncode": {"payload_bytes": 4},
        "Labels": {},
        "KitsuneFeatures": {"lambdas": [1.0, 0.1]},
    }

    @pytest.mark.parametrize("name", sorted(CONVERTED))
    def test_chunked_stream_matches_batch(self, benign_trace, name):
        operation = OPERATIONS[name]
        stateless = operation.stream == "stateless"
        assert (operation.stream_fn is None) == stateless
        table = benign_trace.sort_by_time().select(np.arange(200))
        params = operation.validate_params(dict(self.CONVERTED[name]))
        expected = operation.fn([table], params)
        for splits in ([len(table)], [77, 123], [1] * len(table)):
            state: dict = {}
            parts, start = [], 0
            for size in splits:
                chunk = table.select(np.arange(start, start + size))
                parts.append(
                    operation.fn([chunk], params)
                    if stateless
                    else operation.stream_fn([chunk], params, state)
                )
                start += size
            streamed = np.concatenate(parts, axis=0)
            assert np.array_equal(expected, streamed), (name, splits)


class TestStreamingFlowDetector:
    @pytest.fixture(scope="class")
    def detector(self, attack_trace):
        spec = build_algorithm("A14")
        X, y = spec.featurize(attack_trace)
        model = spec.build_model()
        model.fit(X, y)
        return StreamingFlowDetector(spec, model, timeout=30.0)

    def test_emits_flow_verdicts(self, detector, attack_trace):
        verdicts = []
        for chunk in chunked(attack_trace, 15.0):
            verdicts.extend(detector.process_chunk(chunk))
        assert len(verdicts) > 50
        assert all(v.unit == "flow" for v in verdicts)
        detector.flush()

    def test_detects_the_flood(self, attack_trace):
        spec = build_algorithm("A14")
        X, y = spec.featurize(attack_trace)
        model = spec.build_model()
        model.fit(X, y)
        detector = StreamingFlowDetector(spec, model, timeout=30.0)
        verdicts = []
        for chunk in chunked(attack_trace, 15.0):
            verdicts.extend(detector.process_chunk(chunk))
        anomalous = [v for v in verdicts if v.is_anomalous]
        assert len(anomalous) > 10

    def test_cross_chunk_flow_reassembly(self):
        # one long flow split across two chunks must emit exactly once,
        # with all its packets
        from repro.traffic.builder import TraceBuilder

        builder = TraceBuilder()
        for i in range(10):
            builder.add_tcp(float(i), 1, 2, 4000, 80, 100)
        builder.add_tcp(10.0, 1, 2, 4000, 80, 0, flags=0x11)  # FIN|ACK
        table = builder.build()

        spec = build_algorithm("A15")
        reference = NetworkScenario(
            name="ref", device_counts={"smart_hub": 1}, duration=60.0, seed=1
        ).generate()
        X, y = spec.featurize(reference)
        model = spec.build_model()
        model.fit(X, y)

        detector = StreamingFlowDetector(spec, model, timeout=1000.0)
        first = detector.process_chunk(table.select(table.ts < 5.0))
        second = detector.process_chunk(table.select(table.ts >= 5.0))
        assert first == []  # flow still open after the first chunk
        assert len(second) == 1

    def test_idle_timeout_evicts_under_out_of_order_timestamps(self):
        # flow A goes idle; a later chunk arrives with its packets out
        # of order (a fresh packet at t=50 *before* a straggler at t=3
        # in delivery order).  The detector clock is the max timestamp
        # seen, so flow A is evicted exactly once, and the straggler --
        # already older than the timeout horizon -- is emitted
        # immediately rather than buffered forever.
        from repro.traffic.builder import TraceBuilder

        builder = TraceBuilder()
        builder.add_tcp(0.0, 1, 2, 4000, 80, 100)  # flow A
        builder.add_tcp(2.0, 1, 2, 4000, 80, 100)  # flow A
        builder.add_tcp(3.0, 3, 4, 5000, 80, 100)  # flow C (straggler)
        builder.add_tcp(50.0, 5, 6, 6000, 80, 100)  # flow B (fresh)
        table = builder.build(sort=False)

        spec = build_algorithm("A15")
        reference = NetworkScenario(
            name="ref", device_counts={"smart_hub": 1}, duration=60.0, seed=1
        ).generate()
        X, y = spec.featurize(reference)
        model = spec.build_model()
        model.fit(X, y)

        detector = StreamingFlowDetector(spec, model, timeout=30.0)
        first = detector.process_chunk(
            table.select(np.array([0, 1], dtype=np.int64))
        )
        assert first == []
        # deliver t=50 before t=3 inside the second chunk
        second = detector.process_chunk(
            table.select(np.array([3, 2], dtype=np.int64))
        )
        assert sorted(v.src_ip for v in second) == [1, 3]
        assert len([v for v in second if v.src_ip == 1]) == 1
        # only the fresh flow stays open
        assert len(detector._buffers) == 1
        # a third chunk must not resurrect or re-emit the evicted flows
        third = detector.process_chunk(
            table.select(np.array([], dtype=np.int64))
        )
        assert third == []
        detector.flush()
        assert detector._buffers == {}
