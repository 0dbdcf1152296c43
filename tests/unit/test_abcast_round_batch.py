"""A2 delivers each round as one batch.

The batch of round K is the union of every group's round-K bundle,
sorted by id and resolved through the message catalog (paper lines 18
and 19); :meth:`repro.net.message.MessageCatalog.batch` builds it by
concatenating the bundles, each a sorted tuple, and sorting that, and
hands the batch it built last to the next process whose bundles are the
same.  These tests hold every delivered batch to the set-union oracle,
show that a process whose bundles differ from those the others
completed the round with delivers its own union, and that a mid planted
in two bundles is delivered twice — for ``check_all`` to catch — rather
than folded away.
"""

import pytest

import repro.core.abcast as abcast
from repro.checkers.properties import PropertyViolation, check_all
from repro.core.interfaces import AppMessage, MessageCatalog
from repro.runtime.builder import SystemSpec, build_system
from repro.workload.generators import poisson_workload, schedule_workload


def _system(seed=5):
    system = build_system(SystemSpec(protocol="a2", group_sizes=(3, 3, 3)),
                          seed=seed)
    schedule_workload(system, poisson_workload(
        system.topology, system.rng.stream("wl"), rate=3.0, duration=15.0))
    return system


def _oracle(catalog, own, bundles):
    return tuple(map(catalog.get, sorted(set().union(own, *bundles))))


def _record_batches(system):
    """Two maps pid -> [(round, batch)]: the batches each endpoint
    delivers, and the oracle's batch from the bundles it held when it
    completed that round."""
    catalog = system.catalog
    got, expected = {}, {}
    for pid, endpoint in system.endpoints.items():
        handler, complete = endpoint._handler, endpoint._complete_head

        def recording(msgs, pid=pid, endpoint=endpoint, handler=handler):
            # The endpoint is already in round K+1 when it delivers K.
            got.setdefault(pid, []).append((endpoint.k - 1, msgs))
            handler(msgs)

        def watched(pid=pid, endpoint=endpoint, complete=complete):
            round_k = endpoint.k
            own = endpoint._own_bundle.get(round_k)
            bundles = tuple(endpoint.msgs.get(round_k, {}).values())
            done = complete()
            if done and (own or any(bundles)):
                expected.setdefault(pid, []).append(
                    (round_k, _oracle(catalog, own, bundles)))
            return done

        endpoint._handler = recording
        endpoint._complete_head = watched
    return got, expected


@pytest.mark.parametrize("in_flight", [2, 1])
def test_every_batch_is_the_union_of_its_bundles(monkeypatch, in_flight):
    monkeypatch.setattr(abcast, "ROUNDS_IN_FLIGHT", in_flight)
    system = _system()
    got, expected = _record_batches(system)
    system.run_quiescent()

    assert got == expected
    assert sum(len(batches) for batches in got.values()) > 100
    check_all(system.log, system.topology)
    # The members complete each round one after another, so the catalog
    # builds it once and every process holds the very same tuple.
    built = {}
    for delivered in got.values():
        for round_k, batch in delivered:
            built.setdefault(round_k, set()).add(id(batch))
    assert all(len(ids) == 1 for ids in built.values())


def _plant(system, got, pick):
    """Step until some endpoint P holds, for a round K that another
    endpoint has already delivered and that P has not completed, another
    group's bundle for which ``pick(view, gid, bundle)`` returns a
    replacement (``view``: P's bundles for K by group id); put it in P's
    view.  Returns (pid, K, the batch the other endpoint delivered)."""
    while system.sim.step():
        done = {}
        for delivered in got.values():
            done.update(delivered)
        for pid, endpoint in system.endpoints.items():
            for round_k, batch in done.items():
                bundles = endpoint.msgs.get(round_k)
                if round_k < endpoint.k or not bundles:
                    continue
                view = dict(bundles)
                own = endpoint._own_bundle.get(round_k)
                if own is not None:
                    view[endpoint.my_gid] = own
                for gid, bundle in bundles.items():
                    planted = pick(view, gid, bundle)
                    if planted is not None:
                        bundles[gid] = planted
                        return pid, round_k, batch
    raise AssertionError("no delivered round left to plant in")


def test_an_endpoint_with_other_bundles_delivers_its_own_union():
    system = _system()
    got, expected = _record_batches(system)

    def drop_last(view, gid, bundle):
        return bundle[:-1] if bundle else None

    pid, round_k, first = _plant(system, got, drop_last)
    system.run_quiescent()

    assert got == expected
    delivered = dict(got[pid])[round_k]
    assert delivered != first
    assert set(delivered) < set(first)
    others = [dict(batches)[round_k] for other, batches in got.items()
              if other != pid]
    assert others and all(batch == first for batch in others)


def test_a_mid_in_two_bundles_is_delivered_twice_and_caught():
    system = _system()
    got, expected = _record_batches(system)

    def add_foreign_mid(view, gid, bundle):
        for other, part in view.items():
            if other != gid and part:
                return tuple(sorted(bundle + part[:1]))
        return None

    pid, round_k, _first = _plant(system, got, add_foreign_mid)
    system.run_quiescent()

    batch = dict(got[pid])[round_k]
    assert len({msg.mid for msg in batch}) == len(batch) - 1
    with pytest.raises(PropertyViolation) as info:
        check_all(system.log, system.topology)
    assert info.value.context["property"] == "uniform_integrity"
    assert info.value.context["kind"] == "duplicate"
    assert info.value.context["pid"] == pid


class TestCatalogBatch:
    """``MessageCatalog.batch`` on its own: sorted concatenation, the
    last batch held for equal parts, duplicates kept."""

    @staticmethod
    def _catalog(n=6):
        catalog = MessageCatalog()
        for mid in catalog.mint(n):
            catalog.intern(AppMessage(mid=mid, sender=0, dest_groups=(0,)))
        return catalog

    def test_equal_parts_get_the_held_tuple_and_others_a_new_one(self):
        catalog = self._catalog()
        parts = (("m000001", "m000004"), ("m000000", "m000003"))
        batch = catalog.batch(parts)
        assert [msg.mid for msg in batch] == [
            "m000000", "m000001", "m000003", "m000004"]
        assert catalog.batch(parts) is batch
        assert catalog.batch(tuple(map(tuple, map(list, parts)))) is batch
        other = catalog.batch((("m000001",), ("m000000", "m000003")))
        assert [msg.mid for msg in other] == ["m000000", "m000001",
                                             "m000003"]
        assert catalog.batch(parts) == batch

    def test_a_mid_in_two_parts_is_kept_twice(self):
        catalog = self._catalog()
        batch = catalog.batch((("m000002",), ("m000001", "m000002")))
        assert [msg.mid for msg in batch] == ["m000001", "m000002",
                                             "m000002"]
