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
``transcript_pieces`` writes one run of a result as the bytes pieces of
the JSON line that ``simulate`` writes, a piece per chunk of a row, so the
line is never held whole. Numpy formats the residues, with no Python int
per residue, and the joined pieces are byte-identical to ``json.dumps`` of
the record {n, k, m, variant, blocks, clear_block, seed} with
``sort_keys=True``. Each residue is written as whole 4-byte words gathered
from one table of "0000".."9999" and "00, ".."99, ", whose second half
holds the same words with their leading zeros NUL: a value's words above
its highest nonzero part come from that half, and one ``bytes.replace``
per chunk drops the NUL bytes. The work arrays are made once per line.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def _word_table() -> np.ndarray:
    """uint32 words in two halves of ``_HALF`` words each. The first holds
    the bytes "0000".."9999", then from ``_LAST`` on "00, ".."99, ", in
    order: a value's 4-digit groups and its last word. The second holds the
    same words with each leading "0" made NUL, except the units digit of a
    last word, so that 0 still reads "0, ": the words of a value's top part.
    Copies of the 100 two-digit strings build the first half, and a uint8
    mask of its leading "0" bytes the second, with no int64 arithmetic: the
    10**4 strings in Python took 2.8 ms of every import, and int64 numpy
    arithmetic 0.3 MB of its peak RSS."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint8)
    pairs = pairs.reshape(100, 2)
    text = np.empty((2, _HALF, 4), dtype=np.uint8)
    full, top = text
    groups = full[:_LAST].reshape(100, 100, 4)
    groups[:, :, :2] = pairs[:, None]
    groups[:, :, 2:] = pairs
    full[_LAST:, :2] = pairs
    full[_LAST:, 2:] = np.frombuffer(b", ", dtype=np.uint8)
    # NUL where a byte and every byte before it in its word is "0", but for
    # a last word's units digit; a column at a time, so that no temporary
    # outgrows one column of bools
    top[:] = full
    lead = np.ones(_HALF, dtype=bool)
    for col in range(4):
        lead &= full[:, col] == ord("0")
        np.copyto(top[:, col], 0, where=lead)
        lead[_LAST:] = False
    return text.view(np.uint32).ravel()


# both tables, and both halves, in one array, so that one gather fills every
# word of a chunk; _HALF is the offset of the NUL-padded half
_LAST = 10**4
_HALF = _LAST + 100
_WORDS = _word_table()


def _rows_bytes(rows: list[np.ndarray], joints: list[bytes]) -> Iterator[bytes]:
    """``joints[0]``, then for each of equally long, non-empty 1-D uint64
    arrays its residues as JSON writes them, b"a, b, c", and the joint after
    it, as bytes pieces: one piece per chunk of at most
    ``randgraph._BATCH_ELEMENTS`` values.

    With d the digits of the largest residue, every value is written as
    w = ceil((d + 2) / 4) whole 4-byte words of ``_WORDS``: its last two
    digits and ", ", and each 4 digits above them. A word whose part above
    it is 0 comes from the NUL-padded half, so the value's leading zeros are
    NUL bytes in front of it, and one ``bytes.replace`` per chunk drops them,
    with the separator after a row's last value, which is made NUL. So at
    m = 2**32, w = 3 and all 12 bytes are text. The work arrays are made
    once for all rows and chunks. Below 2**32 the arithmetic runs in uint32."""
    top = max(int(row.max()) for row in rows)
    w = (len(str(top)) + 5) // 4
    n = len(rows[0])
    size = min(n, randgraph._BATCH_ELEMENTS)
    dtype = np.uint32 if top < 2**32 else np.uint64
    q, t, r = (np.empty(size, dtype=dtype) for _ in range(3))
    above_zero = np.empty(size, dtype=bool)
    index = np.empty((size, w), dtype=np.intp)
    words = np.empty((size, w), dtype=np.uint32)
    yield joints[0]
    for row, joint in zip(rows, joints[1:]):
        for start in range(0, n, size):
            chunk = row[start : start + size]
            used = len(chunk)
            q_, t_, r_, zero_, index_, words_ = q[:used], t[:used], r[:used], above_zero[:used], index[:used], words[:used]
            q_[:] = chunk
            # word indices from the last: the value mod 100, then mod 10**4 of
            # what is left, while q_ holds what is left; the NUL half where
            # nothing is left above the word, and always for the top word
            for col in range(w - 1, 0, -1):
                base = 100 if col == w - 1 else 10**4
                np.floor_divide(q_, base, out=t_)
                np.multiply(t_, base, out=r_)
                # same_kind admits uint64 into intp: every index is below 2 * _HALF
                np.subtract(q_, r_, out=index_[:, col], casting="same_kind")
                np.equal(t_, 0, out=zero_)
                np.add(index_[:, col], _HALF, out=index_[:, col], where=zero_)
                q_, t_ = t_, q_
            np.add(q_, _HALF, out=index_[:, 0], casting="same_kind")
            index_[:, w - 1] += _LAST
            np.take(_WORDS, index_, out=words_, mode="clip")
            if start + used == n:
                words_.view(np.uint8)[-1, -2:] = 0
            yield words_.tobytes().replace(b"\0", b"")
        yield joint


def transcript_pieces(blocks: np.ndarray, clear: np.ndarray | None, m: Modulus, seed: int) -> Iterator[bytes]:
    """One run of a ``run_batch`` result, its (k, n) blocks and its clear
    block (None in the plain variant), as the bytes pieces of one JSON
    object, without a newline: {"blocks", "clear_block", "k", "m", "n",
    "seed", "variant"}. Joined, they are byte for byte what
    ``json.dumps(record, sort_keys=True)`` prints for the record of those
    keys, its blocks and clear block as lists of ints (null in the plain
    variant), encoded as ASCII. ``_rows_bytes`` writes every row's
    residues, each as whole 4-byte words, with one set of work arrays for
    the line, a piece at a time, so the line is never held whole."""
    k, n = blocks.shape
    variant = "plain" if clear is None else "randomized"
    end = f'"k": {k}, "m": {m.m}, "n": {n}, "seed": {seed}, "variant": "{variant}"}}'.encode()
    joints = [b'{"blocks": [['] + [b"], ["] * (k - 1)
    if clear is None:
        return _rows_bytes([*blocks], joints + [b']], "clear_block": null, ' + end])
    return _rows_bytes([*blocks, clear], joints + [b']], "clear_block": [', b"], " + end])
