"""The split-and-mix summation protocol.

Each of n users splits its input into k additive shares; shuffler j mixes
the j-th shares of all users with a uniform random permutation; the server
sums everything it receives. The randomized-inputs variant gives each user
one extra share that is delivered unshuffled (position-aligned with the
user), which upgrades average-case security to worst-case security.

One engine runs the protocol on a whole batch of executions at once.
``run_batch`` takes a ``(runs, n)`` uint64 input array and returns the
``(runs, k, n)`` shuffled blocks, plus the ``(runs, n)`` clear block of
the randomized-inputs variant. Group elements of Z_m are residues
0 <= x < m, and ``Modulus`` is the group order m. Residues stay in uint64
and every sum is taken one pair at a time, reduced mod m after each add:
both operands are below m, so no intermediate reaches 2m <= 2**64, which
is why ``Modulus`` caps m at ``MAX_MODULUS`` = 2**63. A plain ``.sum()``
over a row would wrap around.
``transcript_record`` turns run r of a result into the JSON record that
``simulate`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_MODULUS = 2**63


@dataclass(frozen=True)
class Modulus:
    """Order of the group Z_m; all protocol arithmetic reduces modulo m."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise TypeError(f"modulus must be an int, got {type(self.m).__name__}")
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")
        if self.m > MAX_MODULUS:
            raise ValueError(f"modulus must be <= 2**63, got {self.m}")


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
    Raises ValueError unless ``inputs`` is a 2-D uint64 array of residues
    below m, with n >= 1 users and k >= 1.
    """
    if not isinstance(inputs, np.ndarray) or inputs.ndim != 2 or inputs.dtype != np.uint64:
        raise ValueError("inputs must be a 2-D uint64 array of shape (runs, n)")
    runs, n = inputs.shape
    if n < 1:
        raise ValueError(f"need at least one user, got n={n}")
    if k < 1:
        raise ValueError(f"need at least one shuffled share, got k={k}")
    mm = np.uint64(m.m)
    if (inputs >= mm).any():
        raise ValueError(f"inputs must be residues below m={m.m}")
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
    user order. Blocks keep their shuffler index; the security analysis
    treats them as distinguishable.
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
    residue of a ``run_batch`` result, shape ``(runs,)``. It equals the
    input sum because the blocks are a rearranged set of all shares."""
    flat = blocks.reshape(len(blocks), -1)
    if clear is not None:
        flat = np.concatenate((flat, clear), axis=1)
    return _sum_mod(flat, m)


def transcript_record(
    blocks: np.ndarray, clear: np.ndarray | None, r: int, m: Modulus, seed: int
) -> dict:
    """Run r of a ``run_batch`` result as a JSON-shaped record
    {n, k, m, variant, blocks, clear_block, seed} of Python ints."""
    _, k, n = blocks.shape
    return {
        "n": n,
        "k": k,
        "m": m.m,
        "variant": "plain" if clear is None else "randomized",
        "blocks": blocks[r].tolist(),
        "clear_block": None if clear is None else clear[r].tolist(),
        "seed": seed,
    }
