"""Identifier allocation: per-tag counters, formatting, independence."""

from repro.common import ids as ids_module
from repro.common.ids import IdAllocator


class TestIdAllocator:
    def test_first_id_is_one(self):
        assert IdAllocator().next("user") == "user-000001"

    def test_sequential(self):
        ids = IdAllocator()
        assert [ids.next("t") for _ in range(3)] == ["t-000001", "t-000002", "t-000003"]

    def test_tags_are_independent(self):
        ids = IdAllocator()
        ids.next("a")
        ids.next("a")
        assert ids.next("b") == "b-000001"

    def test_peek_counts_without_allocating(self):
        ids = IdAllocator()
        assert ids.peek("x") == 0
        ids.next("x")
        assert ids.peek("x") == 1
        assert ids.peek("x") == 1

    def test_custom_width(self, monkeypatch):
        monkeypatch.setattr(ids_module, "ID_WIDTH", 3)
        assert IdAllocator().next("s") == "s-001"

    def test_ids_are_unique_across_many(self):
        ids = IdAllocator()
        allocated = {ids.next("u") for _ in range(1000)}
        assert len(allocated) == 1000
