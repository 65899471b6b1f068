"""The split-and-mix summation protocol.

Each of n users splits its input into k additive shares; shuffler j mixes
the j-th shares of all users with a uniform random permutation; the server
sums everything it receives. The randomized-inputs variant gives each user
one extra share that is delivered unshuffled (position-aligned with the
user), which upgrades average-case security to worst-case security.

One engine runs the protocol on a whole batch of executions at once.
``run_batch`` takes a ``(runs, n)`` uint64 input array and returns the
``(runs, k, n)`` shuffled blocks, plus the ``(runs, n)`` clear block of
the randomized-inputs variant. Residues stay in uint64 and every sum is
taken one pair at a time, reduced mod m after each add: both operands are
below m, so no intermediate reaches 2m <= 2**64, which is why ``Modulus``
caps m at 2**63. A plain ``.sum()`` over a row would wrap around.
``run_ikos`` and ``run_ikos_randomized`` are the single-execution form:
one run of the engine on a generator seeded from the caller's
``random.Random``, returned as plain Python ints.
"""

from __future__ import annotations

import enum
import random
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .group import GroupElement, Modulus, group_sum
from .sharing import ShareVector


class Variant(enum.Enum):
    PLAIN = "plain"
    RANDOMIZED_INPUTS = "randomized"


@dataclass(frozen=True)
class Transcript:
    """Observable output of one protocol run.

    ``blocks[j]`` is shuffler j's output (n elements). ``clear_block`` is
    present only for the randomized-inputs variant and stays aligned with
    user indices -- it is never shuffled. Blocks keep their shuffler
    identity; the security analysis treats them as distinguishable.
    """

    blocks: tuple[tuple[GroupElement, ...], ...]
    clear_block: tuple[GroupElement, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.blocks[0])

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def variant(self) -> Variant:
        return Variant.PLAIN if self.clear_block is None else Variant.RANDOMIZED_INPUTS

    def flattened(self) -> tuple[GroupElement, ...]:
        """All kn (or (k+1)n) residues, block-ordered."""
        flat = tuple(v for block in self.blocks for v in block)
        if self.clear_block is not None:
            flat += self.clear_block
        return flat


def shuffle_block(elements: Sequence[GroupElement], rng: random.Random) -> tuple[GroupElement, ...]:
    """Uniform random permutation of the elements (Fisher-Yates)."""
    if len(elements) == 0:
        raise ValueError("cannot shuffle an empty block")
    out = list(elements)
    rng.shuffle(out)
    return tuple(out)


ShareHook = Callable[[list[ShareVector]], None]


def _add(a: np.ndarray, b: np.ndarray, m: np.uint64) -> np.ndarray:
    # a, b < m <= 2**63, so a + b < 2**64 never wraps
    return (a + b) % m


def _sub(a: np.ndarray, b: np.ndarray, m: np.uint64) -> np.ndarray:
    # m - b lies in (0, m], so a + (m - b) < 2m <= 2**64 never wraps
    return (a + (m - b)) % m


def share_batch(
    inputs: np.ndarray, k: int, m: Modulus, rng: np.random.Generator, clear: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Additive sharing of a ``(runs, n)`` uint64 array of residues.

    Returns the ``(runs, k, n)`` shares in user order and, with ``clear``,
    the ``(runs, n)`` uniform masks u sent in the clear (else None). Every
    uniform residue comes from one ``rng.integers`` call, which is exactly
    uniform on [0, m) for any m <= 2**63: the masks first, then the first
    k - 1 shares. The last share solves the sum by pairwise subtraction.
    """
    mm = np.uint64(m.m)
    runs, n = inputs.shape
    draws = rng.integers(0, m.m, size=(runs, k - 1 + clear, n), dtype=np.uint64)
    masks = draws[:, 0] if clear else None
    head = draws[:, 1:] if clear else draws
    last = inputs if masks is None else _sub(inputs, masks, mm)
    for j in range(k - 1):
        last = _sub(last, head[:, j], mm)
    return np.concatenate((head, last[:, None]), axis=1), masks


def run_batch(
    inputs: np.ndarray, k: int, m: Modulus, rng: np.random.Generator, clear: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """``runs`` independent executions on a ``(runs, n)`` uint64 input array.

    Shares as ``share_batch``, then shuffles every (run, block) row with
    its own uniform permutation. Returns the ``(runs, k, n)`` blocks and
    the ``(runs, n)`` clear block (None unless ``clear``), which keeps
    user order.
    """
    shares, masks = share_batch(inputs, k, m, rng, clear)
    return rng.permuted(shares, axis=-1, out=shares), masks


def _sum_mod(values: np.ndarray, m: Modulus) -> np.ndarray:
    """Sum in Z_m over the last axis of a uint64 array of residues, by
    pairwise adds that halve the axis each round."""
    mm = np.uint64(m.m)
    while values.shape[-1] > 1:
        half = values.shape[-1] // 2
        folded = _add(values[..., :half], values[..., half : 2 * half], mm)
        if values.shape[-1] % 2:
            folded[..., 0] = _add(folded[..., 0], values[..., -1], mm)
        values = folded
    return values[..., 0]


def aggregate_batch(blocks: np.ndarray, clear: np.ndarray | None, m: Modulus) -> np.ndarray:
    """Per-run server output: the sum in Z_m of every block and clear
    residue of a ``run_batch`` result, shape ``(runs,)``."""
    flat = blocks.reshape(len(blocks), -1)
    if clear is not None:
        flat = np.concatenate((flat, clear), axis=1)
    return _sum_mod(flat, m)


def transcript_at(blocks: np.ndarray, clear: np.ndarray | None, r: int) -> Transcript:
    """Run r of a ``run_batch`` result as a Transcript of Python ints."""
    return Transcript(
        tuple(map(tuple, blocks[r].tolist())),
        None if clear is None else tuple(clear[r].tolist()),
    )


def _check_run_args(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one user, got n={n}")
    if k < 1:
        raise ValueError(f"need at least one shuffled share, got k={k}")


_per_thread = threading.local()


def _generator_from(rng: random.Random) -> np.random.Generator:
    """A PCG64 Generator whose whole state is drawn from ``rng``.

    Building a Generator costs more than a small run itself, so each thread
    reuses one and overwrites its state on every call; a run still depends
    on the state of ``rng`` alone.
    """
    gen = getattr(_per_thread, "gen", None)
    if gen is None:
        gen = _per_thread.gen = np.random.Generator(np.random.PCG64(0))
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": rng.getrandbits(128), "inc": rng.getrandbits(128) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _run_one(
    inputs: Sequence[GroupElement],
    k: int,
    m: Modulus,
    rng: random.Random,
    on_shares: ShareHook | None,
    clear: bool,
) -> Transcript:
    _check_run_args(len(inputs), k)
    gen = _generator_from(rng)
    x = np.array([[v % m.m for v in inputs]], dtype=np.uint64)
    shares, masks = share_batch(x, k, m, gen, clear)
    # every draw is made before the hook runs, so a hook that runs the
    # protocol itself cannot disturb this run's generator
    blocks = gen.permuted(shares, axis=-1)
    if on_shares is not None:
        rows = shares[0] if masks is None else np.vstack((shares[0], masks))
        on_shares([ShareVector(tuple(col), m) for col in rows.T.tolist()])
    return transcript_at(blocks, masks, 0)


def run_ikos(
    inputs: Sequence[GroupElement],
    k: int,
    m: Modulus,
    rng: random.Random,
    on_shares: ShareHook | None = None,
) -> Transcript:
    """One execution of the plain protocol: share every input into k
    pieces, then shuffle each share index independently across users.

    A batch of one ``run_batch`` execution on a generator whose state is
    drawn from ``rng``, so a run is reproducible from the state of ``rng``.
    ``on_shares`` receives the per-user share vectors before shuffling
    (test hook).
    """
    return _run_one(inputs, k, m, rng, on_shares, clear=False)


def run_ikos_randomized(
    inputs: Sequence[GroupElement],
    k: int,
    m: Modulus,
    rng: random.Random,
    on_shares: ShareHook | None = None,
) -> Transcript:
    """One execution of the randomized-inputs variant: k+1 shares per user,
    k of them shuffled as in the plain run, the last (the mask u) sent in
    the clear and kept in user order. ``on_shares`` receives each user's
    (shares..., u)."""
    return _run_one(inputs, k, m, rng, on_shares, clear=True)


def aggregate(t: Transcript, m: Modulus) -> GroupElement:
    """Sum of every element in the transcript; equals the input sum exactly
    because the blocks are a (rearranged) set of all shares."""
    return group_sum(t.flattened(), m)


def transcript_to_dict(t: Transcript, m: Modulus, seed: int) -> dict:
    """JSON-shaped serialization: {n, k, m, variant, blocks, clear_block, seed}."""
    return {
        "n": t.n,
        "k": t.k,
        "m": m.m,
        "variant": t.variant.value,
        "blocks": [list(b) for b in t.blocks],
        "clear_block": list(t.clear_block) if t.clear_block is not None else None,
        "seed": seed,
    }


def transcript_from_dict(d: dict) -> tuple[Transcript, Modulus, int]:
    blocks = tuple(tuple(b) for b in d["blocks"])
    clear = tuple(d["clear_block"]) if d["clear_block"] is not None else None
    t = Transcript(blocks, clear)
    if t.n != d["n"] or t.k != d["k"] or t.variant.value != d["variant"]:
        raise ValueError("transcript record is inconsistent with its parameters")
    return t, Modulus(d["m"]), d["seed"]
