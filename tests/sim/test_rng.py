"""Named RNG streams: seeds are pure functions of (root seed, name), so a
holder may resolve its stream as late as its first draw."""

import random

from repro.sim.rng import RngRegistry


def test_stream_first_drawn_late_equals_one_created_eagerly():
    eager, lazy = RngRegistry(7), RngRegistry(7)
    early = eager.stream("queue:q")              # resolved before anything else
    for other in ("tcp", "kv:a", "queue:r"):     # unrelated traffic in between
        eager.stream(other).random()
        lazy.stream(other).random()
    want = [early.random() for _ in range(5)]
    assert [lazy.stream("queue:q").random() for _ in range(5)] == want


def test_registry_holds_no_generator_for_a_name_that_never_drew():
    registry = RngRegistry(7)
    assert "queue:idle" not in registry
    registry.stream("queue:busy").random()
    assert "queue:busy" in registry and "queue:idle" not in registry
    assert all(isinstance(rng, random.Random)
               for rng in registry._streams.values())
    assert list(registry._streams) == ["queue:busy"]


def test_discard_forgets_the_stream_and_a_reuse_restarts_it():
    registry = RngRegistry(7)
    first = registry.stream("queue:gone").random()
    registry.discard("queue:gone")
    registry.discard("queue:never-there")        # idempotent
    assert "queue:gone" not in registry
    assert registry.stream("queue:gone").random() == first


def test_streams_and_spawned_registries_are_independent():
    registry = RngRegistry(7)
    a = [registry.stream("a").random() for _ in range(3)]
    assert a != [registry.stream("b").random() for _ in range(3)]
    twin = RngRegistry(7).stream("a")
    assert a == [twin.random() for _ in range(3)]
