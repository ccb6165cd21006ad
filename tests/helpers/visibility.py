"""Audit of the visibility board after a drain, for the fault legs."""

from typing import List


def ids_above_the_floor(service) -> List[str]:
    """Violations: every txid must have landed or been burned once the
    pipeline is quiet, so no region keeps an id above its contiguous
    visibility floor.  Deployments without the distributor keep no board."""
    board = service.visibility_board
    if board is None:
        return []
    return [f"{region}: txids {sorted(above)} stuck above the visibility "
            f"floor {board._floor[region]}"
            for region, above in board._above.items() if above]
