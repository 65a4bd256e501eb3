"""Tests for tagged slot pointers."""

from repro.atomics import TaggedPointer


class TestTaggedPointer:
    def test_empty_initially(self):
        pointer = TaggedPointer()
        payload, valid = pointer.load()
        assert payload is None
        assert not valid

    def test_store_makes_valid(self):
        pointer = TaggedPointer()
        pointer.store("task-set")
        payload, valid = pointer.load()
        assert payload == "task-set"
        assert valid

    def test_tag_invalid_keeps_payload_readable(self):
        pointer = TaggedPointer()
        pointer.store("task-set")
        assert pointer.tag_invalid()
        payload, valid = pointer.load()
        assert payload == "task-set"  # optimistic readers still see it
        assert not valid

    def test_tag_invalid_exactly_once(self):
        """The tag transition elects exactly one finalization coordinator."""
        pointer = TaggedPointer()
        pointer.store("task-set")
        outcomes = [pointer.tag_invalid() for _ in range(5)]
        assert outcomes == [True, False, False, False, False]

    def test_tag_invalid_on_empty(self):
        assert not TaggedPointer().tag_invalid()

    def test_store_revalidates(self):
        pointer = TaggedPointer()
        pointer.store("a")
        pointer.tag_invalid()
        pointer.store("b")
        payload, valid = pointer.load()
        assert payload == "b"
        assert valid
        assert pointer.tag_invalid()  # coordinator election works again

    def test_clear(self):
        pointer = TaggedPointer()
        pointer.store("a")
        pointer.clear()
        payload, valid = pointer.load()
        assert payload is None
        assert not valid

    def test_store_none_is_invalid(self):
        pointer = TaggedPointer()
        pointer.store(None)
        assert not pointer.valid

    def test_tag_invalid_compares_the_expected_payload(self):
        """§2.3's tag is a CAS on the pointer to *this* task set: a
        caller that read T1 before the slot was republished with T2 must
        not tag T2 (the ABA behind "finalized twice")."""
        pointer = TaggedPointer()
        pointer.store("T1")
        assert pointer.tag_invalid(expected="T1")
        pointer.store("T2")
        assert not pointer.tag_invalid(expected="T1")
        assert pointer.load() == ("T2", True)
        assert pointer.tag_invalid(expected="T2")
