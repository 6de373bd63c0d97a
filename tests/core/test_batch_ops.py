"""Columnar operation bodies against their scalar reference oracles.

Five operations once carried two bodies: a scalar one and a faster,
byte-identical numpy one.  Each now has only the numpy body.  The
scalar bodies live on here, verbatim, as reference oracles.  The
contract stays byte-equality: every op's only body must produce
``tobytes()``-identical output to its oracle.  That is checked on real
traffic, on random tables (a hypothesis property) and on the edge cases
the columnar code handles differently: empty tables, all-WLAN and
no-WLAN traces, payloads dropped or retained, ``n`` beyond the flow
length, and an empty ``device_map``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.vectorize import (
    BATCHABLE_VERDICTS,
    operation_vector_report,
)
from repro.core import ExecutionEngine, Pipeline
from repro.core.errors import TemplateError
from repro.core.operations import (
    _NPRINT_LAYERS,
    OPERATIONS,
    _nprint_bits,
    _nprint_header_blocks,
)
from repro.flows import assemble_connections
from repro.flows.records import FlowTable
from repro.net.table import PACKET_COLUMNS, PacketTable

#: operations whose only body replaced a scalar twin
CONVERTED = [
    "DeviceLabels",
    "FirstNPackets",
    "NprintEncode",
    "ProtocolOneHot",
    "WlanFeatures",
]


# ----------------------------------------------------------------------
# Reference oracles: the retired scalar bodies, verbatim
# ----------------------------------------------------------------------


def _protocol_one_hot(inputs: list, params: dict) -> np.ndarray:
    table: PacketTable = inputs[0]
    out = np.zeros((len(table), 4))
    out[:, 0] = table.proto == 6  # TCP
    out[:, 1] = table.proto == 17  # UDP
    out[:, 2] = table.proto == 1  # ICMP
    out[:, 3] = table.l3 == 0  # non-IP
    return out.astype(np.float64)


def _wlan_features(inputs: list, params: dict) -> np.ndarray:
    table: PacketTable = inputs[0]
    n = len(table)
    is_wlan = (table.l2 == 105).astype(np.float64)
    type_onehot = np.zeros((n, 3))
    for t in range(3):
        type_onehot[:, t] = (table.wlan_type == t) & (table.l2 == 105)
    subtype_onehot = np.zeros((n, 16))
    for s in range(16):
        subtype_onehot[:, s] = (table.wlan_subtype == s) & (table.l2 == 105)
    broadcast = (table.dst_mac == 0xFFFFFFFFFFFF).astype(np.float64)
    return np.column_stack(
        [is_wlan, type_onehot, subtype_onehot, broadcast,
         table.length.astype(np.float64)]
    )


def _nprint_encode(inputs: list, params: dict) -> np.ndarray:
    table: PacketTable = inputs[0]
    layers = params["layers"]
    unknown = set(layers) - set(_NPRINT_LAYERS)
    if unknown:
        raise TemplateError(f"unknown nprint layers: {sorted(unknown)}")
    n = len(table)
    blocks = _nprint_header_blocks(table, layers)
    if "payload" in layers:
        width = int(params["payload_bytes"]) * 8
        blocks.append(_nprint_bits(np.minimum(table.payload_len, 2**16 - 1), 16))
        # Without retained payload bytes the table exposes length-derived
        # pseudo-content; with payloads kept, hash the first bytes in.
        if table.payloads is not None:
            content = np.zeros((n, width))
            for i, payload in enumerate(table.payloads):
                raw = payload[: width // 8]
                for j, byte in enumerate(raw):
                    for b in range(8):
                        content[i, j * 8 + b] = (byte >> (7 - b)) & 1
            blocks.append(content)
        else:
            blocks.append(_nprint_bits(table.payload_len % 251, width))
    return np.hstack(blocks) if blocks else np.empty((n, 0))


def _first_n_packets(inputs: list, params: dict) -> np.ndarray:
    flows: FlowTable = inputs[0]
    n = int(params["n"])
    if n <= 0:
        raise TemplateError("n must be positive")
    lengths = flows.segment("length").astype(np.float64)
    ts = flows.segment("ts")
    out_blocks = []
    sizes = np.zeros((len(flows), n))
    iats = np.zeros((len(flows), n))
    directions = np.zeros((len(flows), n))
    for i in range(len(flows)):
        start, count = flows.starts[i], min(flows.counts[i], n)
        piece = slice(start, start + count)
        sizes[i, :count] = lengths[piece]
        if count > 1:
            iats[i, 1:count] = np.diff(ts[piece])
        directions[i, :count] = flows.forward[piece] * 2.0 - 1.0
    out_blocks.append(sizes)
    if params["include_iat"]:
        out_blocks.append(iats)
    if params["include_direction"]:
        out_blocks.append(directions)
    return np.hstack(out_blocks)


def _device_labels(inputs: list, params: dict) -> np.ndarray:
    source = inputs[0]
    mapping = {int(k): int(v) for k, v in params["device_map"].items()}
    if isinstance(source, PacketTable):
        ips = source.src_ip
    elif isinstance(source, FlowTable):
        ips = source.key_columns["src_ip"]
    else:
        raise TemplateError("DeviceLabels expects packets or flows")
    out = np.full(len(ips), -1, dtype=np.int64)
    for ip, class_id in mapping.items():
        out[ips == ip] = class_id
    return out


ORACLES = {
    "DeviceLabels": _device_labels,
    "FirstNPackets": _first_n_packets,
    "NprintEncode": _nprint_encode,
    "ProtocolOneHot": _protocol_one_hot,
    "WlanFeatures": _wlan_features,
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _with_payloads(table, payload_bytes=6):
    """A copy of ``table`` carrying deterministic synthetic payloads."""
    table = table.select(np.arange(len(table)))
    rng = np.random.default_rng(7)
    sizes = np.minimum(table.payload_len, payload_bytes).astype(np.int64)
    blob = rng.integers(0, 256, size=int(sizes.sum()), dtype=np.uint8)
    payloads, offset = [], 0
    for size in sizes:
        payloads.append(bytes(blob[offset:offset + size]))
        offset += size
    table.payloads = payloads
    return table


def _run_both(name, inputs, params):
    operation = OPERATIONS[name]
    params = operation.validate_params(params)
    return ORACLES[name](inputs, params), operation.fn(inputs, params)


def _assert_byte_equal(oracle, body):
    assert oracle.shape == body.shape
    assert oracle.dtype == body.dtype
    assert oracle.tobytes() == body.tobytes()


def _check(name, inputs, params):
    _assert_byte_equal(*_run_both(name, inputs, params))


def random_table(seed, n, wlan="mixed", payloads=False):
    """A random packet table; ``wlan`` is ``none``, ``all`` or ``mixed``."""
    rng = np.random.default_rng(seed)
    table = PacketTable.empty(n)
    cols = table.columns
    cols["ts"][:] = np.sort(rng.uniform(0.0, 30.0, n))
    hosts = rng.integers(0x0A000001, 0x0A000008, n)
    cols["src_ip"][:] = hosts
    cols["dst_ip"][:] = rng.integers(0x0A000001, 0x0A000008, n)
    cols["src_port"][:] = rng.choice([53, 80, 443, 50000, 50001], n)
    cols["dst_port"][:] = rng.choice([53, 80, 443, 50000, 50001], n)
    cols["proto"][:] = rng.choice([0, 1, 6, 17, 47], n)
    cols["l3"][:] = rng.choice([0, 4, 4, 4, 6], n)
    cols["length"][:] = rng.integers(40, 1500, n)
    cols["payload_len"][:] = rng.integers(0, 70000, n)
    cols["tcp_flags"][:] = rng.integers(0, 256, n)
    cols["ttl"][:] = rng.integers(0, 256, n)
    cols["window"][:] = rng.integers(0, 65536, n)
    cols["dst_mac"][:] = np.where(
        rng.random(n) < 0.2, 0xFFFFFFFFFFFF, rng.integers(1, 2**40, n)
    )
    is_wlan = {
        "none": np.zeros(n, dtype=bool),
        "all": np.ones(n, dtype=bool),
        "mixed": rng.random(n) < 0.5,
    }[wlan]
    cols["l2"][:] = np.where(is_wlan, 105, 1)
    # 255 (n/a) and out-of-range ids must stay all-zero one-hots
    cols["wlan_type"][:] = rng.choice([0, 1, 2, 3, 255], n)
    cols["wlan_subtype"][:] = rng.choice([0, 4, 8, 15, 16, 255], n)
    cols["label"][:] = rng.integers(0, 2, n)
    if payloads:
        table.payloads = [
            bytes(rng.integers(0, 256, rng.integers(0, 12), dtype=np.uint8))
            for _ in range(n)
        ]
    return table


def check_every_op(table, *, layers, payload_bytes, first_n, mapped, seed):
    """Byte-compare every converted op against its oracle on ``table``."""
    _check("ProtocolOneHot", [table], {})
    _check("WlanFeatures", [table], {})
    _check(
        "NprintEncode", [table],
        {"layers": layers, "payload_bytes": payload_bytes},
    )
    flows = assemble_connections(table)
    for include_iat in (True, False):
        _check(
            "FirstNPackets", [flows],
            {"n": first_n, "include_iat": include_iat,
             "include_direction": not include_iat},
        )
    rng = np.random.default_rng(seed)
    known = [int(ip) for ip in np.unique(table.src_ip)[:mapped]]
    extra = [int(ip) for ip in rng.integers(1, 2**32, mapped)]
    device_map = {str(ip): i % 5 for i, ip in enumerate(known + extra)}
    for source in (table, flows):
        _check("DeviceLabels", [source], {"device_map": device_map})


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


class TestByteEquality:
    def test_protocol_one_hot(self, small_trace):
        _check("ProtocolOneHot", [small_trace], {})

    def test_wlan_features(self, small_trace):
        _check("WlanFeatures", [small_trace], {})

    def test_device_labels(self, small_trace):
        unique = np.unique(small_trace.src_ip)
        device_map = {
            str(int(ip)): i % 3 for i, ip in enumerate(unique[:16])
        }
        _check("DeviceLabels", [small_trace], {"device_map": device_map})

    def test_nprint_headers_only(self, small_trace):
        _check(
            "NprintEncode", [small_trace],
            {"layers": ["ipv4", "tcp", "udp", "icmp"]},
        )

    def test_nprint_with_payload(self, small_trace):
        table = _with_payloads(small_trace)
        for payload_bytes in (4, 8):
            _check(
                "NprintEncode", [table],
                {"layers": ["ipv4", "tcp", "payload"],
                 "payload_bytes": payload_bytes},
            )

    def test_nprint_payload_layer_without_payload_data(self, small_trace):
        _check(
            "NprintEncode", [small_trace],
            {"layers": ["ipv4", "payload"], "payload_bytes": 4},
        )

    def test_first_n_packets(self, small_trace):
        flows = assemble_connections(small_trace)
        _check("FirstNPackets", [flows], {})
        _check("FirstNPackets", [flows], {"n": 5, "include_iat": False})

    def test_every_converted_op_is_analyzer_approved(self):
        for name in CONVERTED:
            report = operation_vector_report(OPERATIONS[name])
            assert report.verdict in BATCHABLE_VERDICTS, name
            assert report.codes() == set(), (name, report.codes())


class TestOracleProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(0, 60),
        wlan=st.sampled_from(["none", "all", "mixed"]),
        payloads=st.booleans(),
        layers=st.lists(
            st.sampled_from(["ipv4", "tcp", "udp", "icmp", "payload"]),
            unique=True,
        ),
        payload_bytes=st.integers(0, 10),
        first_n=st.integers(1, 40),
        mapped=st.integers(0, 6),
    )
    def test_only_body_matches_oracle_on_random_tables(
        self, seed, n, wlan, payloads, layers, payload_bytes, first_n,
        mapped,
    ):
        table = random_table(seed, n, wlan, payloads)
        check_every_op(
            table, layers=layers, payload_bytes=payload_bytes,
            first_n=first_n, mapped=mapped, seed=seed,
        )

    @pytest.mark.parametrize("wlan", ["none", "all", "mixed"])
    @pytest.mark.parametrize("payloads", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 25])
    def test_edge_cases(self, n, wlan, payloads):
        # first_n=64 exceeds every flow's length; mapped=0 is the empty
        # device_map; n=0 is the empty table
        for mapped in (0, 3):
            check_every_op(
                random_table(n + 11, n, wlan, payloads),
                layers=list(_NPRINT_LAYERS), payload_bytes=8,
                first_n=64, mapped=mapped, seed=n,
            )


class TestEngineGating:
    TEMPLATE = [
        {"func": "ProtocolOneHot", "input": None, "output": "X"},
        {"func": "WlanFeatures", "input": None, "output": "W"},
        {"func": "Labels", "input": None, "output": "y"},
    ]

    def test_vectorized_matches_scalar_under_parallelism(
        self, small_trace
    ):
        engine = ExecutionEngine(
            use_cache=False, parallel=True, max_workers=4,
            track_memory=False,
        )
        out = engine.run(
            Pipeline.from_template(self.TEMPLATE), small_trace,
            outputs=["X", "W", "y"],
        )
        _assert_byte_equal(_protocol_one_hot([small_trace], {}), out["X"])
        _assert_byte_equal(_wlan_features([small_trace], {}), out["W"])
