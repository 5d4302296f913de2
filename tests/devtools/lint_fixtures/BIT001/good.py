# fixture-path: src/repro/sim/kernel.py
"""BIT001 good: hot-path sets routed through the interning tables;
module-level one-shot constants stay allowed."""
from repro.sim.bitset import interned_set, mask_of

_NO_PIDS = frozenset()


def finish_round(halted_this_round):
    return interned_set(mask_of(halted_this_round))
