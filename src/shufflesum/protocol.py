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
Each residue is written as whole 4-byte words gathered from one table of
"0000".."9999" and "00, ".."99, ", and one compress per chunk drops its
leading zeros; the work arrays are made once per line.
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


def _word_table() -> np.ndarray:
    """uint32 words holding the bytes "0000".."9999", then from ``_LAST``
    on "00, ".."99, ", in order: a value's 4-digit groups and its last word.
    Copies of the 100 two-digit strings build it, with no arithmetic: the
    10**4 strings in Python took 2.8 ms of every import, and int64 numpy
    arithmetic 0.3 MB of its peak RSS."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint8)
    pairs = pairs.reshape(100, 2)
    text = np.empty((_LAST + 100, 4), dtype=np.uint8)
    groups = text[:_LAST].reshape(100, 100, 4)
    groups[:, :, :2] = pairs[:, None]
    groups[:, :, 2:] = pairs
    text[_LAST:, :2] = pairs
    text[_LAST:, 2:] = np.frombuffer(b", ", dtype=np.uint8)
    return text.view(np.uint32).ravel()


# both tables in one array, so that one gather fills every word of a chunk
_LAST = 10**4
_WORDS = _word_table()


def _rows_text(rows: list[np.ndarray]) -> list[str]:
    """The residues of each of equally long, non-empty 1-D uint64 arrays as
    JSON does, "a, b, c".

    With d the digits of the largest residue, every value is written as its
    d digits and ", ", zero-padded in front to w = ceil((d + 2) / 4) whole
    4-byte words: its last two digits and the separator, and each 4 digits
    above them, looked up in ``_WORDS``. So at m = 2**32, w = 3 and all 12
    bytes are text. The value's digit count L, from d - 1 compares, picks a
    row of a (d, 4w) keep table that keeps its last L + 2 bytes, and one
    compress of each chunk of at most ``randgraph._BATCH_ELEMENTS`` values
    drops every leading byte, and the separator after a row's last value.
    The work arrays are made once for all rows and chunks. Below 2**32 the
    arithmetic runs in uint32."""
    top = max(int(row.max()) for row in rows)
    d = len(str(top))
    w = (d + 5) // 4
    n = len(rows[0])
    size = min(n, randgraph._BATCH_ELEMENTS)
    dtype = np.uint32 if top < 2**32 else np.uint64
    q, t, r = (np.empty(size, dtype=dtype) for _ in range(3))
    index = np.empty((size, w), dtype=np.intp)
    words = np.empty((size, w), dtype=np.uint32)
    over = np.empty((d - 1, size), dtype=bool)
    shorter = np.empty(size, dtype=np.uint8)
    keep = np.empty((size, 4 * w), dtype=bool)
    powers = np.array([10**p for p in range(1, d)], dtype=dtype)[:, None]
    # row j keeps the last j + 3 bytes: the digits of a (j + 1)-digit value, and ", "
    masks = np.arange(4 * w) >= 4 * w - 3 - np.arange(d)[:, None]
    texts = []
    for row in rows:
        chunks = []
        for start in range(0, n, size):
            chunk = row[start : start + size]
            used = len(chunk)
            q_, t_, r_, index_, words_, keep_ = q[:used], t[:used], r[:used], index[:used], words[:used], keep[:used]
            q_[:] = chunk
            # digits beyond the first: one per power of ten that the value reaches
            np.greater_equal(q_, powers, out=over[:, :used])
            np.add.reduce(over[:, :used].view(np.uint8), axis=0, out=shorter[:used])
            np.take(masks, shorter[:used], axis=0, out=keep_, mode="clip")
            # word indices from the last: the value mod 100, then mod 10**4 of
            # what is left, while q_ holds what is left
            for col in range(w - 1, 0, -1):
                base = 100 if col == w - 1 else 10**4
                np.floor_divide(q_, base, out=t_)
                np.multiply(t_, base, out=r_)
                # same_kind admits uint64 into intp: every index is below 10**4
                np.subtract(q_, r_, out=index_[:, col], casting="same_kind")
                q_, t_ = t_, q_
            index_[:, 0] = q_
            index_[:, w - 1] += _LAST
            np.take(_WORDS, index_, out=words_, mode="clip")
            if start + used == n:
                keep_[-1, -2:] = False
            chunks.append(str(words_.view(np.uint8)[keep_], "ascii"))
        texts.append("".join(chunks))
    return texts


def transcript_line(blocks: np.ndarray, clear: np.ndarray | None, m: Modulus, seed: int) -> str:
    """One run of a ``run_batch`` result, its (k, n) blocks and its clear
    block (None in the plain variant), as one JSON object, without a newline:
    {"blocks", "clear_block", "k", "m", "n", "seed", "variant"}, byte for
    byte what ``json.dumps(record, sort_keys=True)`` prints for the record
    of those keys, its blocks and clear block as lists of ints (null in the
    plain variant). ``_rows_text`` writes every row's residues, each as
    whole 4-byte words, with one set of work arrays for the line."""
    k, n = blocks.shape
    texts = _rows_text([*blocks] if clear is None else [*blocks, clear])
    clear_block = "null" if clear is None else f"[{texts.pop()}]"
    variant = "plain" if clear is None else "randomized"
    # one join, so the megabytes of residue text are copied once
    pieces = ['{"blocks": [[']
    for text in texts:
        pieces += [text, "], ["]
    pieces[-1] = (
        f']], "clear_block": {clear_block}, "k": {k}, "m": {m.m}, '
        f'"n": {n}, "seed": {seed}, "variant": "{variant}"}}'
    )
    return "".join(pieces)
