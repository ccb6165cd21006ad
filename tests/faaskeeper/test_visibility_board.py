"""The visibility board against a reference that keeps every settled id.

Per region the board holds a contiguous floor (every txid up to it has
landed or was burned) plus the landed ids above it.  A reference board
that never forgets anything must answer every ``visible`` question the
same, at every step of any interleaving of out-of-order, duplicate and
replayed marks and of (repeated) burns; events created on an id fire
exactly when it becomes visible.
"""

import random

import pytest

from repro.faaskeeper import VisibilityBoard
from repro.sim.kernel import Environment

REGIONS = ["us-east-1", "eu-west-1"]
TXIDS = 60


def _schedule(rng, regions):
    """A shuffled op list settling txids 1..TXIDS: about one in six is
    burned (once or twice), every other one lands in every region, in
    batches of one to four, with duplicate and replayed marks mixed in."""
    burned = {t for t in range(1, TXIDS + 1) if rng.random() < 0.15}
    landed = [t for t in range(1, TXIDS + 1) if t not in burned]
    ops = []
    for t in burned:
        ops.extend([("burn", t)] * rng.choice((1, 1, 2)))
    for region in regions:
        pending = list(landed)
        rng.shuffle(pending)
        while pending:
            size = rng.randint(1, 4)
            ops.append(("mark", region, pending[:size]))
            pending = pending[size:]
        for _ in range(8):  # duplicates of single ids
            ops.append(("mark", region, [rng.choice(landed)]))
        for _ in range(3):  # recovery replays: an ascending run of ids
            ops.append(("mark", region, sorted(rng.sample(landed, 6))))
    rng.shuffle(ops)
    return ops


@pytest.mark.parametrize("regions", [REGIONS[:1], REGIONS],
                         ids=["one_region", "two_regions"])
@pytest.mark.parametrize("seed", range(12))
def test_board_agrees_with_a_board_that_keeps_every_id(seed, regions):
    rng = random.Random(seed)
    board = VisibilityBoard(Environment(), regions)
    landed = {region: set() for region in regions}
    burned = set()
    watched = {(region, t): board.event(region, t)
               for region in regions
               for t in rng.sample(range(1, TXIDS + 1), 10)}

    for op in _schedule(rng, regions):
        if op[0] == "burn":
            board.burn(op[1])
            burned.add(op[1])
        else:
            _mark, region, txids = op
            board.mark(region, txids)
            landed[region].update(txids)
        for region in regions:
            settled = landed[region] | burned
            for t in range(-1, TXIDS + 3):
                assert board.visible(region, t) == (t <= 0 or t in settled)
            floor, above = board._floor[region], board._above[region]
            # the floor never passes an id that was neither landed nor burned
            assert set(range(1, floor + 1)) <= settled
            assert above <= settled and all(t > floor for t in above)
            assert board.watermark[region] == max(landed[region], default=0)
        for (region, t), ev in watched.items():
            assert ev.triggered == (t in landed[region] | burned)

    for region in regions:
        assert (board._floor[region], board._above[region]) == (TXIDS, set())


@pytest.mark.parametrize("regions", [REGIONS[:1], REGIONS],
                         ids=["one_region", "two_regions"])
def test_in_order_marks_keep_nothing_above_the_floor(regions):
    board = VisibilityBoard(Environment(), regions)
    rng = random.Random(3)
    nxt = 1
    while nxt <= TXIDS:
        batch = list(range(nxt, min(nxt + rng.randint(1, 5), TXIDS + 1)))
        nxt = batch[-1] + 1
        for region in regions:
            board.mark(region, batch)
            assert board._floor[region] == batch[-1]
            assert board._above[region] == set()


def test_a_burned_id_lets_the_floor_pass_in_every_region():
    board = VisibilityBoard(Environment(), REGIONS)
    for region in REGIONS:
        board.mark(region, [1, 3])
        assert (board._floor[region], board._above[region]) == (1, {3})
    board.burn(2)
    board.burn(2)  # a redelivered rejection burns it again
    for region in REGIONS:
        assert (board._floor[region], board._above[region]) == (3, set())
        assert board.watermark[region] == 3
