"""Independent reference computations used as test oracles.

Deliberately coded apart from the package: rotations are explicit 2x2
matrices combined with a literal Kronecker product, and success
probabilities come from enumerating every measurement outcome.
"""

import math

import numpy as np


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def kron_rotate(amplitudes, angle1: float, angle2: float) -> np.ndarray:
    """(R(angle1) x R(angle2)) acting on a length-4 amplitude vector."""
    joint = np.kron(rotation_matrix(angle1), rotation_matrix(angle2))
    return joint @ np.asarray(amplitudes, dtype=float)


def brute_force_total(alpha: float, beta: float, phi1: float, phi2: float) -> float:
    """Average success over the 4 low-bit inputs x 4 outcomes.

    Success at (x0, y0) means the outcome parity equals x0 AND y0.
    """
    total = 0.0
    for x0 in (0, 1):
        for y0 in (0, 1):
            amps = kron_rotate(
                [alpha, 0.0, 0.0, beta],
                phi1 if x0 == 0 else phi2,
                phi1 if y0 == 0 else phi2,
            )
            probs = amps**2
            want = x0 & y0
            total += sum(p for k, p in enumerate(probs) if ((k >> 1) ^ (k & 1)) == want)
    return total / 4.0


def success_probability_full_input(
    alpha: float, beta: float, phi1: float, phi2: float, x: int, y: int
) -> float:
    """P(both outputs equal the target) for one full input pair (x, y),
    with outputs formed by XOR-ing the exchanged bits."""
    x1, x0 = (x >> 1) & 1, x & 1
    y1, y0 = (y >> 1) & 1, y & 1
    amps = kron_rotate(
        [alpha, 0.0, 0.0, beta],
        phi1 if x0 == 0 else phi2,
        phi1 if y0 == 0 else phi2,
    )
    probs = amps**2
    f_value = x1 ^ y1 ^ (x0 & y0)
    total = 0.0
    for k, p in enumerate(probs):
        a, b = k >> 1, k & 1
        out = (a ^ x1) ^ (b ^ y1)
        if out == f_value:
            total += p
    return float(total)


_POPCOUNT_16 = np.array([bin(m).count("1") for m in range(1 << 16)])


def protocol_target(x: int, y: int) -> int:
    return (x >> 1) ^ (y >> 1) ^ (x & y & 1)


def brute_force_protocol_counts(sequential: bool, ma: int, mb: int) -> np.ndarray:
    """``counts[oa, ob]``: success count of all 256 x 256 output-table pairs
    for fixed message tables, every protocol evaluated on all 16 inputs.

    Bit x of ``ma`` is Alice's message on input x; bit y of ``mb`` is Bob's
    (bit 2*y + Alice's bit when ``sequential``).  Bit 2*input + received of
    an output table is that party's output.  Each table's correct inputs
    form a 16-bit mask; a pair's count is the popcount of the AND of masks.
    """
    tables = np.arange(256)
    alice_mask = np.zeros(256, dtype=np.int64)
    bob_mask = np.zeros(256, dtype=np.int64)
    for x in range(4):
        for y in range(4):
            a = (ma >> x) & 1
            b = (mb >> (2 * y + a if sequential else y)) & 1
            want = protocol_target(x, y)
            alice_mask |= (((tables >> (2 * x + b)) & 1) == want).astype(np.int64) << (4 * x + y)
            bob_mask |= (((tables >> (2 * y + a)) & 1) == want).astype(np.int64) << (4 * x + y)
    return _POPCOUNT_16[np.bitwise_and.outer(alice_mask, bob_mask)]


def brute_force_best_simultaneous() -> tuple[int, int, int, int, int]:
    """``(count, ma, mb, oa, ob)`` of the best of all 16*16*256*256
    simultaneous protocols; ties go to the smallest (ma, mb, oa, ob)."""
    best = (-1, -1, -1, -1, -1)
    for ma in range(16):
        for mb in range(16):
            counts = brute_force_protocol_counts(False, ma, mb)
            top = int(counts.max())
            if top > best[0]:
                oa, ob = divmod(int(counts.argmax()), 256)
                best = (top, ma, mb, oa, ob)
    return best
