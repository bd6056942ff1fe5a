"""Shared-memory segment and quota/accounting unit tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve.protocol import ERR_QUOTA, ArrayRef, ProtocolError
from repro.serve.quotas import QuotaBook, QuotaRejected
from repro.serve.shm import (AttachedSet, SegmentSet, attach_array,
                             create_array)


class TestSharedMemory:
    def test_create_attach_roundtrip(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((6, 5))
        seg, view, ref = create_array(data.shape, fill=data)
        try:
            other, remote = attach_array(ref)
            try:
                assert np.array_equal(remote, data)
                remote[2, 3] = 42.0  # server-side write is visible
                assert view[2, 3] == 42.0
            finally:
                other.close()
        finally:
            seg.close()
            seg.unlink()

    def test_zero_size_array(self):
        seg, view, ref = create_array((0,))
        try:
            assert view.shape == (0,)
            assert ref.nbytes == 0
        finally:
            seg.close()
            seg.unlink()

    def test_overclaiming_descriptor_rejected(self):
        seg, _view, ref = create_array((4,))
        try:
            lie = ArrayRef(shm=ref.shm, shape=(4000,))
            with pytest.raises(ProtocolError):
                attach_array(lie)
        finally:
            seg.close()
            seg.unlink()

    def test_vanished_segment_raises(self):
        with pytest.raises(FileNotFoundError):
            attach_array(ArrayRef(shm="rblas_does_not_exist", shape=(2,)))

    def test_segment_set_cleans_up(self):
        with SegmentSet() as segments:
            _view, ref = segments.add((8,), fill=np.ones(8))
        # after release the segment must be gone
        with pytest.raises(FileNotFoundError):
            attach_array(ref)

    def test_attached_set_never_unlinks(self):
        seg, _view, ref = create_array((3,), fill=np.zeros(3))
        try:
            with AttachedSet() as attached:
                attached.attach(ref)
            # creator's segment survives the server detach
            again, view = attach_array(ref)
            again.close()
        finally:
            seg.close()
            seg.unlink()

    def test_attached_set_maps_what_requests_use(self):
        made = [create_array((4,), fill=np.full(4, float(i)))
                for i in range(4)]
        a, b, c, d = (ref for _seg, _view, ref in made)
        try:
            attached = AttachedSet()
            with attached.for_request() as request:
                request.attach(a)
                request.attach(b)
            assert set(attached._segments) == {a.shm, b.shm}
            with attached.for_request() as request:
                request.attach(b)
            # what the last request did not use is let go
            assert set(attached._segments) == {b.shm}
            with attached.for_request() as request:
                request.attach(c)
                # a new name is never mapped beside unused mappings
                assert set(attached._segments) == {c.shm}
            running = attached.for_request()
            with running:
                view = running.attach(d)
                attached.close()   # the connection ends mid-request
                assert set(attached._segments) == {d.shm}
                view[0] = 42.0     # still mapped
            assert set(attached._segments) == set()
            assert made[3][1][0] == 42.0
        finally:
            for seg, _view, _ref in made:
                seg.close()
                seg.unlink()


class TestQuotaBook:
    def test_admit_and_release(self):
        book = QuotaBook(max_inflight_per_client=2)
        book.admit("alice", 100)
        book.admit("alice", 100)
        with pytest.raises(QuotaRejected) as excinfo:
            book.admit("alice", 100)
        assert excinfo.value.code == ERR_QUOTA
        book.release("alice", "ok")
        book.admit("alice", 50)  # slot freed
        snap = book.snapshot()["alice"]
        assert snap["admitted"] == 3
        assert snap["rejected_quota"] == 1
        assert snap["inflight_peak"] == 2

    def test_byte_limit(self):
        book = QuotaBook(max_request_bytes=1000)
        with pytest.raises(QuotaRejected):
            book.admit("bob", 1001)
        book.admit("bob", 1000)

    def test_unadmit_rolls_back(self):
        book = QuotaBook()
        book.admit("carol", 64)
        book.unadmit("carol", 64)
        snap = book.snapshot()["carol"]
        assert snap["admitted"] == 0
        assert snap["inflight"] == 0
        assert snap["bytes_in"] == 0

    def test_isolation_between_clients(self):
        book = QuotaBook(max_inflight_per_client=1)
        book.admit("a", 1)
        book.admit("b", 1)  # b unaffected by a's inflight
        with pytest.raises(QuotaRejected):
            book.admit("a", 1)

    def test_outcomes_ledger(self):
        book = QuotaBook()
        for outcome in ("ok", "failed", "deadline"):
            book.admit("d", 1)
            book.release("d", outcome)
        snap = book.snapshot()["d"]
        assert snap["completed"] == 1
        assert snap["failed"] == 1
        assert snap["deadline_expired"] == 1
        assert snap["inflight"] == 0

    def test_seal_writes_ledger(self, tmp_path):
        book = QuotaBook()
        book.admit("erin", 8)
        book.release("erin", "ok")
        path = tmp_path / "accounting.json"
        book.seal(path)
        record = json.loads(path.read_text())
        assert record["totals"]["completed"] == 1
        assert "erin" in record["clients"]
        assert record["sealed_at"] is not None
