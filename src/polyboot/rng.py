"""Counter-based random substreams.

Every stochastic component draws from a Philox generator keyed by
``(master seed, stream role)`` with the draw index placed in the high bits
of the 256-bit counter.  A substream is therefore a pure function of
``(seed, role, index, lane)``: results are bit-identical regardless of how
draws are scheduled across threads, and distinct draw indices can never
collide (each index owns 2**128 counter blocks). ``Substreams`` reaches the
same streams by re-keying one generator, which is much cheaper than
building a new one per draw. It keeps the state words as Python ints,
because numpy's ``Philox.state`` setter converts array words one scalar at
a time: a re-key took 0.7 us with int words against 1.8 us with array
words (min of 15 x 20,000 calls, 2-vCPU x86-64 VM, numpy 2.4).
Seeds, roles, indices and lanes may be Python or NumPy integers
(``operator.index``); floats are refused.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream roles. Keep values stable: they are part of the reproducibility
# contract for seeded runs.
ROLE_UNIT = 1
ROLE_CLUSTER = 2
ROLE_PIGEONHOLE = 3
ROLE_GAMMA = 4
ROLE_SYNTHETIC_DGP = 5
ROLE_PIGEONHOLE_DGP = 6
ROLE_COVERAGE = 7


def _key(seed: int, role: int) -> int:
    return ((operator.index(role) & _MASK64) << 64) | (operator.index(seed) & _MASK64)


def substream(seed: int, role: int, index: int, lane: int = 0) -> np.random.Generator:
    """Return the generator for substream ``(seed, role, index, lane)``."""
    index, lane = operator.index(index), operator.index(lane)
    if index < 0 or lane < 0:
        raise ValueError("index and lane must be nonnegative")
    counter = ((index & _MASK64) << 192) | ((lane & _MASK64) << 128)
    return np.random.Generator(np.random.Philox(key=_key(seed, role), counter=counter))


class Substreams:
    """Every substream of one ``(seed, role)`` from a single Philox.

    ``at(index, lane)`` sets the counter words to ``[0, 0, lane, index]`` in
    the fresh generator's state (an empty buffer, no stored 32-bit half),
    built once with its words as Python ints, which the setter only reads.
    The generator then yields exactly what ``substream(seed, role, index,
    lane)`` yields. One instance must not be shared between threads.
    """

    def __init__(self, seed: int, role: int):
        self._bits = np.random.Philox(key=_key(seed, role))
        state = self._bits.state
        state["state"]["key"] = tuple(map(int, state["state"]["key"]))
        state["buffer"] = tuple(map(int, state["buffer"]))
        self._state = state
        self._generator = np.random.Generator(self._bits)

    def at(self, index: int, lane: int = 0) -> np.random.Generator:
        index, lane = operator.index(index), operator.index(lane)
        if index < 0 or lane < 0:
            raise ValueError("index and lane must be nonnegative")
        self._state["state"]["counter"] = (0, 0, lane & _MASK64, index & _MASK64)
        self._bits.state = self._state
        return self._generator


def derive_seed(seed: int, role: int, index: int) -> int:
    """Derive a child 64-bit seed, e.g. one per simulation replication."""
    ss = np.random.SeedSequence(entropy=operator.index(seed) & _MASK64, spawn_key=(role, index))
    return int(ss.generate_state(1, np.uint64)[0])
