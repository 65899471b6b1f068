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
and every share is solved one pair at a time, reduced mod m after each
subtraction: both operands are below m, so no intermediate reaches
2m <= 2**64, which is why ``Modulus`` caps m at ``MAX_MODULUS`` = 2**63.
``aggregate_batch`` sums a run exactly, over the 32-bit halves of its
residues.
``transcript_line`` writes one run of a result as the JSON line that
``simulate`` prints. Numpy formats the residues, with no Python int per
residue, and the text is byte-identical to ``json.dumps`` of the record
{n, k, m, variant, blocks, clear_block, seed} with ``sort_keys=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import randgraph

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


def _sub(a: np.ndarray, b: np.ndarray, m: np.uint64) -> np.ndarray:
    # residues a, b < m <= 2**63: where a >= b, d = a - b < d + m < 2**64;
    # where a < b, d wraps to 2**64 + a - b >= 2**63 and d + m wraps back to
    # a - b + m < m. So the smaller of the two is the residue, with no division
    d = a - b
    return np.minimum(d, d + m, out=d)


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


def aggregate_batch(blocks: np.ndarray, clear: np.ndarray | None, m: Modulus) -> np.ndarray:
    """Per-run server output: the sum in Z_m of every block and clear
    residue of a ``run_batch`` result, shape ``(runs,)``. It equals the
    input sum because the blocks are a rearranged set of all shares.

    Numpy sums the low and the high 32 bits of the blocks and of the clear
    block apart, with no joined copy, and Python ints join the sums and
    reduce them mod m. Each half is below 2**32, so no uint64 sum wraps
    while a run holds fewer than 2**32 residues: ``shard_batches`` admits
    k * n <= 10**7, so a run holds at most (k + 1) * n <= 2 * 10**7."""
    parts = [blocks.reshape(len(blocks), -1)] + ([] if clear is None else [clear])
    lo = sum((part & np.uint64(0xFFFFFFFF)).sum(axis=1, dtype=np.uint64) for part in parts)
    hi = sum((part >> np.uint64(32)).sum(axis=1, dtype=np.uint64) for part in parts)
    sums = [((h << 32) + l) % m.m for h, l in zip(hi.tolist(), lo.tolist())]
    return np.array(sums, dtype=np.uint64)


def _row_text(row: np.ndarray) -> str:
    """The residues of a non-empty 1-D uint64 array as JSON does, "a, b, c".

    Each chunk of at most ``randgraph._BATCH_ELEMENTS`` values becomes a
    ``(values, d + 2)`` byte table: the d decimal digits of the row's
    largest value, then ", ". One mask drops leading zeros (a value keeps
    its digits from its first nonzero one, and its last digit always) and
    the separator after the row's last value. Rows below 2**32 use uint32."""
    top = int(row.max())
    d = len(str(top))
    size = min(len(row), randgraph._BATCH_ELEMENTS)
    q, t, r = (np.empty(size, dtype=np.uint32 if top < 2**32 else np.uint64) for _ in range(3))
    text = np.empty((size, d + 2), dtype=np.uint8)
    text[:, d:] = np.frombuffer(b", ", dtype=np.uint8)
    keep = np.ones((size, d + 2), dtype=bool)
    parts = []
    for start in range(0, len(row), size):
        chunk = row[start : start + size]
        used = len(chunk)
        q_, t_, r_, text_, keep_ = q[:used], t[:used], r[:used], text[:used], keep[:used]
        q_[:] = chunk
        # digit j from the right: q_ holds value // 10**(d-1-j), which is 0
        # exactly where digit j is a leading zero
        for j in range(d - 1, -1, -1):
            if j < d - 1:
                np.not_equal(q_, 0, out=keep_[:, j])
            np.floor_divide(q_, 10, out=t_)
            np.multiply(t_, 10, out=r_)
            np.subtract(q_, r_, out=r_)
            np.add(r_, ord("0"), out=text_[:, j], casting="unsafe")
            q_, t_ = t_, q_
        keep_[-1, d:] = start + used < len(row)
        parts.append(text_[keep_].tobytes())
        keep_[-1, d:] = True
    return b"".join(parts).decode("ascii")


def transcript_line(blocks: np.ndarray, clear: np.ndarray | None, m: Modulus, seed: int) -> str:
    """One run of a ``run_batch`` result, its (k, n) blocks and its clear
    block (None in the plain variant), as one JSON object, without a newline:
    {"blocks", "clear_block", "k", "m", "n", "seed", "variant"}, byte for
    byte what ``json.dumps(record, sort_keys=True)`` prints for the record
    of those keys, its blocks and clear block as lists of ints (null in the
    plain variant)."""
    k, n = blocks.shape
    rows = ", ".join(f"[{_row_text(row)}]" for row in blocks)
    clear_block = "null" if clear is None else f"[{_row_text(clear)}]"
    variant = "plain" if clear is None else "randomized"
    return (
        f'{{"blocks": [{rows}], "clear_block": {clear_block}, "k": {k}, "m": {m.m}, '
        f'"n": {n}, "seed": {seed}, "variant": "{variant}"}}'
    )
