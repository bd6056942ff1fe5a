"""Wire-protocol unit tests: framing, descriptors, the routine table."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.serve.protocol import (MAX_FRAME, PROTOCOL_VERSION, ROUTINES,
                                  ArrayRef, PeerGone, ProtocolError,
                                  call_header, error_response, ok_response,
                                  recv_frame, send_frame)


def _pair():
    return socket.socketpair()


class TestFraming:
    def test_roundtrip(self):
        a, b = _pair()
        try:
            send_frame(a, {"op": "ping", "n": 3})
            assert recv_frame(b) == {"op": "ping", "n": 3}
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = _pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_send_rejected(self):
        a, b = _pair()
        try:
            with pytest.raises(ProtocolError):
                send_frame(a, {"blob": "x" * (MAX_FRAME + 1)})
        finally:
            a.close()
            b.close()

    def test_oversized_claim_rejected(self):
        import struct

        a, b = _pair()
        try:
            a.sendall(struct.pack("!I", MAX_FRAME + 1))
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_mid_frame_hangup_is_peer_gone(self):
        import struct

        a, b = _pair()
        try:
            a.sendall(struct.pack("!I", 100) + b"{")
            a.close()
            with pytest.raises(PeerGone):
                recv_frame(b)
        finally:
            b.close()

    def test_undecodable_payload(self):
        import struct

        a, b = _pair()
        try:
            payload = b"\xff\xfe not json"
            a.sendall(struct.pack("!I", len(payload)) + payload)
            with pytest.raises(ProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_interleaved_frames_on_one_socket(self):
        a, b = _pair()
        received = []

        def reader():
            while True:
                frame = recv_frame(b)
                if frame is None:
                    return
                received.append(frame)

        t = threading.Thread(target=reader)
        t.start()
        try:
            for i in range(50):
                send_frame(a, {"i": i})
        finally:
            a.close()
        t.join(timeout=5)
        b.close()
        assert [f["i"] for f in received] == list(range(50))


class TestArrayRef:
    def test_roundtrip(self):
        ref = ArrayRef(shm="seg_x", shape=(3, 4))
        again = ArrayRef.from_json(ref.to_json())
        assert again == ref
        assert again.nbytes == 3 * 4 * 8

    def test_negative_dimension_rejected(self):
        with pytest.raises(ProtocolError):
            ArrayRef.from_json({"shm": "s", "shape": [3, -1]})

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            ArrayRef.from_json("nope")
        with pytest.raises(ProtocolError):
            ArrayRef.from_json({"shape": [2]})

    def test_offset_is_a_non_negative_multiple_of_8(self):
        ref = ArrayRef(shm="s", shape=(2,), offset=64)
        assert ArrayRef.from_json(ref.to_json()) == ref
        assert ArrayRef.from_json({"shm": "s", "shape": [2]}).offset == 0
        for offset in (-8, 4, "x", float("inf")):
            with pytest.raises(ProtocolError):
                ArrayRef.from_json({"shm": "s", "shape": [2],
                                    "offset": offset})

    def test_only_float64_operands(self):
        for dtype in ("nope", "float32"):
            with pytest.raises(ProtocolError):
                ArrayRef.from_json({"shm": "s", "shape": [2],
                                    "dtype": dtype})
        assert ArrayRef.from_json({"shm": "s", "shape": [2, 3]}).nbytes == 48


class TestRoutineTable:
    def test_serve_contract_is_the_routine_table(self):
        from repro.blas import routines

        assert ROUTINES is routines.ROUTINES

    def test_families_cover_served_blas(self):
        assert set(ROUTINES) == {"gemm", "gemv", "ger", "axpy", "dot",
                                 "scal"}

    def test_gemm_shape(self):
        spec = ROUTINES["gemm"]
        assert spec.result_shape({"a": (5, 3), "b": (3, 7)}, {}) == (5, 7)

    def test_gemv_shape_honors_trans(self):
        spec = ROUTINES["gemv"]
        assert spec.result_shape({"a": (5, 3), "x": (3,)},
                                 {"trans": False}) == (5,)
        assert spec.result_shape({"a": (5, 3), "x": (5,)},
                                 {"trans": True}) == (3,)

    def test_inplace_and_scalar_outputs(self):
        assert ROUTINES["axpy"].output == "y"
        ger = ROUTINES["ger"]
        assert ger.arrays == ("x", "y", "a") and ger.scalars == ("alpha",)
        assert ger.output == "a"
        assert ROUTINES["scal"].output == "x"
        assert ROUTINES["dot"].output == "scalar"

    def test_call_header_is_versioned(self):
        ref = ArrayRef(shm="s", shape=(2,))
        header = call_header("axpy", "me", 500, {"x": ref, "y": ref},
                             {"alpha": 2.0}, {}, None)
        assert header["v"] == PROTOCOL_VERSION
        assert header["routine"] == "axpy"
        assert "out" not in header

    def test_response_constructors(self):
        assert ok_response(value=1.5) == {"ok": True, "value": 1.5}
        err = error_response("busy", "full", retry_after_ms=40)
        assert err["error"]["code"] == "busy"
        assert err["error"]["retry_after_ms"] == 40
