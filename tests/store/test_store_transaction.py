"""Unit tests for the one-shot transaction model and executor."""

import pytest

from repro.store.transaction import Transaction, execute


def txn(*ops, txn_id="t1", client=0):
    return Transaction(txn_id=txn_id, client=client, ops=tuple(ops))


class TestTransactionModel:
    def test_declared_sets(self):
        t = txn(("get", "a"), ("put", "b", 1), ("incr", "c", 2),
                ("cas", "d", None, 9))
        assert t.keys() == ("a", "b", "c", "d")

    def test_keys_dedupe_preserves_first_use_order(self):
        t = txn(("put", "b", 1), ("get", "a"), ("incr", "b", 1))
        assert t.keys() == ("b", "a")

    def test_payload_round_trip(self):
        t = txn(("get", "a"), ("cas", "b", 0, 5))
        assert Transaction.from_payload(t.to_payload()) == t

    def test_empty_ops_rejected(self):
        with pytest.raises(ValueError, match="at least one operation"):
            Transaction(txn_id="t", client=0, ops=())

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            txn(("del", "a"))

    def test_malformed_arity_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            txn(("put", "a"))
        with pytest.raises(ValueError, match="malformed"):
            txn(("get", "a", 1))


class TestExecute:
    def test_put_get_incr_cas(self):
        state = {}
        t = txn(("put", "a", 10), ("get", "a"), ("incr", "b", 3),
                ("cas", "c", None, 7), ("cas", "a", 99, 0))
        effects = execute(t, state)
        assert state == {"a": 10, "b": 3, "c": 7}
        assert effects.reads == {1: 10}  # get sees the same-txn put
        assert effects.cas_applied == {3: True, 4: False}

    def test_incr_resets_non_integer_values(self):
        state = {"a": "text"}
        execute(txn(("incr", "a", 5)), state)
        assert state == {"a": 5}

    def test_missing_key_reads_none(self):
        effects = execute(txn(("get", "nope")), {})
        assert effects.reads == {0: None}

    def test_owned_filter_skips_foreign_keys(self):
        state = {}
        t = txn(("put", "mine", 1), ("put", "theirs", 2), ("get", "theirs"))
        effects = execute(t, state, owned=lambda k: k == "mine")
        assert state == {"mine": 1}
        assert effects.reads == {}  # foreign read not recorded

    def test_partitioned_execution_equals_projected_global(self):
        """The identity the serializability checker relies on."""
        ops = (("put", "a", 1), ("incr", "b", 2), ("get", "a"),
               ("cas", "b", 2, 9), ("get", "b"))
        for partition in (("a",), ("b",), ("a", "b")):
            global_state, local_state = {}, {}
            g = execute(txn(*ops), global_state)
            l = execute(txn(*ops), local_state, owned=lambda k: k in partition)
            assert local_state == {k: v for k, v in global_state.items()
                                   if k in partition}
            for index, value in l.reads.items():
                assert g.reads[index] == value
            for index, applied in l.cas_applied.items():
                assert g.cas_applied[index] == applied
