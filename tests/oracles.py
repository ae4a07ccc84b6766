"""Independent reference computations used as test oracles.

Deliberately coded apart from the package: rotations are explicit 2x2
matrices combined with a literal Kronecker product, and success
probabilities come from enumerating every measurement outcome.
``four_angle_win`` is the one Born-rule value of a strategy, for scalar
angles; a strategy where both parties share (phi1, phi2) passes them twice.

The module is also the one home of the reference values several test files
check against.  ``pcg64_words`` is numpy's PCG64 stream in plain Python, and
``oracle_tallies`` reads ``monte_carlo``'s draw order off it.
"""

import itertools
import math
from collections.abc import Iterator
from decimal import Decimal

import numpy as np

# The paper's value at the maximal pair with angles EPR_ANGLES = (-pi/16, 3pi/16).
COS2_PI8 = math.cos(math.pi / 8) ** 2
EPR_ANGLES = (-math.pi / 16, 3 * math.pi / 16)
# Concentrate-then-play wins 3/4 + SLOPE * beta^2: with probability 2 beta^2 it
# holds the maximal pair and wins COS2_PI8, else 3/4.
SLOPE = 2.0 * COS2_PI8 - 1.5
# 33 canonical states, chi from -pi/4 (the maximal pair) to 0 (a product state).
CHI_GRID = [float(c) for c in np.linspace(-math.pi / 4, 0.0, 33)]


def p_max_formula(alpha: float, beta: float) -> float:
    """The paper's optimum p_max = 1/2 + sqrt(1 + 4 alpha^2 beta^2) / 4."""
    return 0.5 + math.sqrt(1.0 + 4.0 * (alpha * beta) ** 2) / 4.0


def rotation_matrix(angle: float) -> np.ndarray:
    """R(angle) = [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def kron_rotate(amplitudes, angle1: float, angle2: float) -> np.ndarray:
    """(R(angle1) x R(angle2)) acting on a length-4 amplitude vector."""
    joint = np.kron(rotation_matrix(angle1), rotation_matrix(angle2))
    return joint @ np.asarray(amplitudes, dtype=float)


def four_angle_win(alpha: float, beta: float, a0: float, a1: float, b0: float, b1: float) -> float:
    """Win probability when Alice turns by a0 or a1 on x0 = 0 or 1, and Bob by b0 or b1 on y0.

    Averaged over the 4 low-bit inputs x 4 outcomes: amplitude k of the
    rotated pair is the outcome (k >> 1, k & 1), and a round at (x0, y0)
    wins when the outcome parity equals x0 AND y0.
    """
    total = 0.0
    for x0, a in enumerate((a0, a1)):
        for y0, b in enumerate((b0, b1)):
            probs = kron_rotate([alpha, 0.0, 0.0, beta], a, b) ** 2
            total += sum(p for k, p in enumerate(probs) if (k >> 1) ^ (k & 1) == x0 & y0)
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


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_pool(seed: int) -> list[int]:
    """The four 32-bit pool words of numpy's ``SeedSequence(seed)``, no spawn key.

    The seed enters as its 32-bit words, least significant first; each is
    hashed into the pool, then every pool word is mixed into every other,
    then any words beyond the fourth are mixed in.
    """
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def pcg64_words(seed: int) -> Iterator[int]:
    """numpy's ``PCG64(seed).random_raw()`` words, one at a time, in plain Python.

    PCG64 is the 128-bit LCG with the XSL-RR output function (O'Neill, "PCG:
    A family of simple fast space-efficient statistically good algorithms
    for random number generation", HMC-CS-2014-0905): each step multiplies
    the state by a fixed constant and adds the odd increment, and the output
    is the state's two 64-bit halves XOR-ed, rotated right by its top 6 bits.
    The 128-bit start state and stream come from four 64-bit words of
    ``SeedSequence(seed).generate_state``, high word first.
    """
    pool = _seed_sequence_pool(seed)
    hash_const = 0x8B51F9DD
    halves = []
    for value in itertools.islice(itertools.cycle(pool), 8):
        value ^= hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    w0, w1, w2, w3 = (halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULTIPLIER + inc) & _M128
    while True:
        state = (state * _PCG_MULTIPLIER + inc) & _M128
        rot = state >> 122
        value = (state >> 64 ^ state) & _M64
        yield (value >> rot | value << (64 - rot)) & _M64


def oracle_tallies(alpha: float, beta: float, phi1: float, phi2: float, trials: int,
                   seed: int) -> dict[tuple[int, int], tuple[int, int]]:
    """``monte_carlo``'s ``per_input_counts``, read straight off its documented draw order.

    Trial i's inputs are PCG64 word i, x from bits 30-31 and y from bits
    62-63; its uniform is (word ``trials + i`` >> 11) * 2**-53.  The outcome
    k is the number of the Born probabilities' first three running sums at
    or below the uniform, giving a = k >> 1 and b = k & 1; the round wins
    when (a XOR x1) XOR (b XOR y1) equals ``protocol_target(x, y)``.
    """
    edges = {}
    for x0, a in enumerate((phi1, phi2)):
        for y0, b in enumerate((phi1, phi2)):
            probs = (kron_rotate([alpha, 0.0, 0.0, beta], a, b) ** 2).tolist()
            edges[x0, y0] = list(itertools.accumulate(probs[:3]))
    words = pcg64_words(seed)
    inputs = list(itertools.islice(words, trials))
    tallies = {key: [0, 0] for key in edges}
    for word, uniform_word in zip(inputs, words):
        x, y = (word >> 30) & 3, (word >> 62) & 3
        u = (uniform_word >> 11) * 2.0**-53
        k = sum(edge <= u for edge in edges[x & 1, y & 1])
        out = ((k >> 1) ^ (x >> 1)) ^ ((k & 1) ^ (y >> 1))
        tally = tallies[x & 1, y & 1]
        tally[0] += out == protocol_target(x, y)
        tally[1] += 1
    return {key: tuple(tally) for key, tally in tallies.items()}


_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


def horodecki_bound(alpha: float, beta: float) -> float:
    """Largest win probability of any projective strategy on alpha|00> + beta|11>.

    A round is won exactly when a XOR b = x0 AND y0, so the low-bit game is
    CHSH, won with probability 1/2 + B/8 for CHSH value B.  By the Horodecki
    criterion (Phys. Lett. A 200, 340 (1995)) the largest B over all
    projective measurements is 2 sqrt(s1^2 + s2^2), where s1 >= s2 are the
    top singular values of the correlation matrix T_ij = <sigma_i x sigma_j>.
    """
    psi = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
    corr = np.array([[(psi.conj() @ np.kron(si, sj) @ psi).real for sj in _PAULIS]
                     for si in _PAULIS])
    s1, s2, _ = np.linalg.svd(corr, compute_uv=False)
    return 0.5 + math.sqrt(s1 * s1 + s2 * s2) / 4.0


def procrustean_filter(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Alice's two-outcome filter (M0, M1) on alpha|00> + beta|11>, |beta| <= alpha.

    The Procrustean method of Bennett, Bernstein, Popescu & Schumacher
    (PRA 53, 2046 (1996)): M0 = diag(|beta|/alpha, 1) x I cuts the larger
    Schmidt amplitude down to the smaller one, so M0 psi is maximally
    entangled, reached with probability ||M0 psi||^2; M1 = sqrt(I - M0^T M0) x I
    is the failing outcome.  Both act on the 4-amplitude vector (c00, c01, c10, c11).
    """
    local = np.diag([abs(beta) / alpha, 1.0])
    rest = np.eye(2) - local.T @ local
    values, vectors = np.linalg.eigh(rest)
    return (np.kron(local, np.eye(2)),
            np.kron(vectors @ np.diag(np.sqrt(values)) @ vectors.T, np.eye(2)))


def schmidt_coefficients(amplitudes) -> np.ndarray:
    """Squared Schmidt coefficients of a two-qubit pure state, largest first.

    They are the eigenvalues of Alice's reduced density matrix
    rho_A = C C^T, where C[a, b] is the amplitude of |ab>.
    """
    c = np.asarray(amplitudes, dtype=float).reshape(2, 2)
    return np.sort(np.linalg.eigvalsh(c @ c.T))[::-1]


def vidal_bound(source, target) -> float:
    """Largest probability of converting ``source`` into ``target`` by LOCC, on a single copy.

    Vidal (PRL 83, 1046 (1999)): the minimum over l of E_l(source) / E_l(target),
    where E_l sums the squared Schmidt coefficients from the l-th largest on.
    Both states are 4-amplitude vectors.
    """
    lam, mu = schmidt_coefficients(source), schmidt_coefficients(target)
    return float(min(lam[l:].sum() / mu[l:].sum() for l in range(len(lam))))


# Digits for the optimal-angle reference, beyond those its 1 - x loses: about
# three per decade of 1/|alpha*beta|, as 1 - x1 is about 16|alpha*beta|^3.
ANGLE_DIGITS = 50


def angle_digits(alpha: float, beta: float) -> int:
    """Decimal precision at which ``optimal_angle_halves`` keeps ANGLE_DIGITS digits."""
    return ANGLE_DIGITS - 3 * min(0, Decimal(alpha * beta).adjusted())


def decimal_sin(x: Decimal) -> Decimal:
    """sin x by its Taylor series, summed until a term no longer changes the
    sum in the current decimal context."""
    term = total = x
    k = 1
    while True:
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        k += 1
        if total + term == total:
            return total
        total += term


def optimal_angle_halves(alpha: float, beta: float) -> tuple[Decimal, Decimal]:
    """(1 - x1)/2 and (1 - x2)/2 for the optimal angles phi1 = -(1/4) arccos x1
    and phi2 = (1/4) arccos x2, in the current decimal context.

    x1 and x2 are the paper's arguments (1 + 2ab -+ t)/(1 - 2ab), with
    ab = alpha*beta and t = 4ab / sqrt(1 + 4ab^2), taken as written; the
    context's precision absorbs the cancellation in 1 - x.
    """
    ab = Decimal(alpha) * Decimal(beta)
    t = 4 * ab / (1 + 4 * ab * ab).sqrt()
    return tuple((1 - (1 + 2 * ab + sign * t) / (1 - 2 * ab)) / 2 for sign in (-1, 1))
